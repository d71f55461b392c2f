(** Summary statistics for the benchmark harness and experiment tables. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays of length < 2. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [\[0,1\]]: linear-interpolation quantile of
    a copy of [xs] (the input is not mutated). *)

val median : float array -> float

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] partitions [\[min, max\]] into [bins] equal-width
    buckets and returns [(lo, hi, count)] per bucket.  Constant data
    (min = max) degenerates to a single zero-width bucket [(x, x, n)]
    holding every sample; an empty array yields no buckets.  Raises
    [Invalid_argument] when [bins <= 0]. *)

val mean_int : int array -> float

val sum_int : int array -> int

val scaling_exponent : (float * float) list -> float
(** [scaling_exponent [(n1, t1); (n2, t2); …]]: the exponent [e] of the
    least-squares fit [t ≈ c·n^e], i.e. the slope of [log t] against
    [log n].  NaN with fewer than two distinct sizes or any size or time
    that is not positive. *)

val exponent_gate :
  ceiling:float -> (float * float) list -> (float, float) result
(** [exponent_gate ~ceiling samples] is [Ok e] when the fitted
    {!scaling_exponent} [e] is finite and at most [ceiling], [Error e]
    otherwise (a NaN fit fails). *)
