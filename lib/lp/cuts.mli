(** Lifted cover cuts separated from knapsack rows — the storage-budget
    rows of CoPhy's BIP.  A cover [C] with [sum_{C} a_j > b] yields
    [sum_{C} x_j <= |C| - 1], lifted to the extension of [C] by every
    item at least as heavy as the cover's heaviest member.  Cuts live in
    a pool with activity-based aging and are certified against the final
    incumbent. *)

type cut

type pool

(** Scan the problem for knapsack rows ([<=] rows with positive
    coefficients over binary variables) and build an empty pool. *)
val detect : Problem.t -> pool

(** One separation round against an LP point: generate greedy lifted
    covers from every knapsack, dedup against the pool, age pool entries
    (entries slack for several consecutive rounds are evicted unless
    already installed), and return the not-yet-added cuts violated by
    more than [1e-4], most violated first, at most 16 of them.  Ticks
    trace counters [cuts.separated] / [cuts.evicted]. *)
val separate : pool -> float array -> cut list

(** Install a cut as a [<=] row of the problem (idempotent).  The row
    then participates in every LP solve and in {!Analyze.certify} like
    any other row.  Branch and bound counts installs in
    [bb.cuts_added]. *)
val add_to_problem : pool -> Problem.t -> cut -> unit

(** Number of added cuts violated by a point by more than [1e-6] (0 =
    every cut certified).  Branch-and-bound checks the final incumbent
    through this — a nonzero result means a cut cut off an integer
    feasible point and must be treated as a solver bug. *)
val certify : pool -> float array -> int
