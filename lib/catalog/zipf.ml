(* Zipf(z) distribution over ranks 1..n, used to model skewed column value
   frequencies as produced by the tpcdskew generator of Chaudhuri &
   Narasayya.  z = 0 is uniform; larger z concentrates mass on low ranks. *)

type t = {
  n : int;              (* number of distinct values (ranks)  *)
  z : float;            (* skew parameter, z >= 0             *)
  prefix : float array; (* prefix.(r) = sum_{i=1..r} i^{-z}, r <= exact_limit *)
  harmonic : float;     (* H_{n,z} = sum_{r=1..n} r^{-z}      *)
}

(* Harmonic numbers are summed exactly up to this rank; above it, an
   Euler–Maclaurin style integral approximates the tail, to keep
   construction O(1)-ish for the huge domains of TPC-H columns. *)
let exact_limit = 20_000

(* The running sums of r^{-z} for r = 1..exact_limit, left to right, so
   [prefix.(r)] is bit for bit the sum a loop over 1..r computes.  They
   depend on the skew alone and every column of a catalog shares a few
   skews, so each skew's array is computed once per process and shared
   read-only: a lock-free list, published by compare-and-set (a domain
   that loses the race recomputes the same array and retries). *)
let prefixes : (float * float array) list Atomic.t = Atomic.make []

let same_skew a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec prefix_sums z =
  let known = Atomic.get prefixes in
  match List.find_opt (fun (z', _) -> same_skew z z') known with
  | Some (_, prefix) -> prefix
  | None ->
      let prefix = Array.make (exact_limit + 1) 0.0 in
      for r = 1 to exact_limit do
        prefix.(r) <- prefix.(r - 1) +. (float_of_int r ** (-.z))
      done;
      if Atomic.compare_and_set prefixes known ((z, prefix) :: known) then prefix
      else prefix_sums z

(* H_{n,z} over the prefix sums of skew z. *)
let harmonic_of prefix n z =
  if n <= exact_limit then prefix.(n)
  else begin
    let a = float_of_int exact_limit and b = float_of_int n in
    let tail =
      if abs_float (z -. 1.0) < 1e-9 then log (b /. a)
      else ((b ** (1.0 -. z)) -. (a ** (1.0 -. z))) /. (1.0 -. z)
    in
    prefix.(exact_limit) +. tail
  end

let create ~n ~z =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if z < 0.0 then invalid_arg "Zipf.create: z must be >= 0";
  let prefix = prefix_sums z in
  { n; z; prefix; harmonic = harmonic_of prefix n z }

let n t = t.n
let z t = t.z

(* Probability mass of the value of rank r (1-based). *)
let mass t r =
  if r < 1 || r > t.n then invalid_arg "Zipf.mass: rank out of range";
  (float_of_int r ** (-.t.z)) /. t.harmonic

(* Cumulative mass of ranks 1..r. *)
let cumulative t r =
  if r < 0 then invalid_arg "Zipf.cumulative: negative rank";
  let r = min r t.n in
  if r = 0 then 0.0 else harmonic_of t.prefix r t.z /. t.harmonic

(* Expected selectivity of an equality predicate whose constant is drawn
   from the same distribution as the data: sum_r p_r^2 = H_{n,2z}/H_{n,z}^2.
   For z=0 this is exactly 1/n. *)
let equality_selectivity t =
  let z2 = 2.0 *. t.z in
  harmonic_of (prefix_sums z2) t.n z2 /. (t.harmonic *. t.harmonic)

(* Mass of a contiguous rank interval [lo, hi]. *)
let interval_mass t ~lo ~hi =
  if lo > hi then 0.0
  else cumulative t hi -. cumulative t (lo - 1)

(* Sample a rank according to the distribution, using inverse-CDF with
   binary search over [cumulative].  Deterministic given the float u. *)
let rank_of_quantile t u =
  if u < 0.0 || u > 1.0 then invalid_arg "Zipf.rank_of_quantile";
  let rec bisect lo hi =
    (* invariant: cumulative (lo-1) < u <= cumulative hi *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative t mid >= u then bisect lo mid else bisect (mid + 1) hi
  in
  bisect 1 t.n

let sample t rng = rank_of_quantile t (Random.State.float rng 1.0)

(* Expected selectivity of a range predicate covering a fraction [frac] of
   the rank domain, with the interval's position drawn uniformly.  Under
   uniform data this is exactly [frac]; under skew the expectation is still
   [frac] but the *typical* (median) range is lighter while ranges touching
   the head are much heavier.  We expose the head-biased variant used by the
   workload generator: the interval start rank is itself Zipf-distributed,
   modelling queries that target popular values. *)
let range_selectivity_head_biased t ~frac rng =
  let width = max 1 (int_of_float (ceil (frac *. float_of_int t.n))) in
  let start = sample t rng in
  let lo = min start (t.n - width + 1) |> max 1 in
  let hi = min t.n (lo + width - 1) in
  interval_mass t ~lo ~hi
