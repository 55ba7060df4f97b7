(** Compiled estimation plans (see DESIGN.md §12, "Plan compilation &
    caching").

    A plan is the compilation of a factored embedding against one
    sketch, factored into two phases:

    - a {e structure} phase — the TREEPARSE-style analysis of the
      reference evaluator (which histograms to enumerate, which kid
      alternatives are bucket-dependent, which environment entries
      exist at each program point, the scratch-cell layout), a pure
      function of the twig shape and the synopsis partition structure,
      summarized by a renaming-invariant {!signature};
    - a {e payload} phase — the interned bucket tables and float
      constants read from one concrete sketch, rebuilt in isolation by
      the repatch path when only payloads changed.

    {!run} interprets the plan as a flat numeric kernel over a
    per-domain [Bigarray] float64 arena and the plan's int32 slab,
    allocating zero words on the OCaml heap in steady state (held by a
    [Gc.minor_words] delta over {!run_batch} in test/test_plan.ml).

    {b Byte-identity:} [run (compile sk e)] replays the reference
    evaluator's floating-point operations in the exact same order, so
    it equals [Estimator.estimate_embedding sk e] bit-for-bit —
    whether the plan came from {!compile} or from a repatch (every
    payload constant is a pure function of the sketch). Held by
    test/test_plan.ml. *)

type t

val compile : Sketch.t -> Embed.enode -> t
(** Compile one embedding against one sketch (both phases). Counted
    under [plan.compiles]; the structure phase is timed under
    [plan.compile_ns] and the payload phase under [plan.repatch_ns]
    (it IS a repatch, and counts as one), so [plan.compile_ns]
    measures exactly the work a repatch skips. *)

val signature : t -> int
(** The plan's structural signature: a hash of the embedding-tree
    shape and the dimension layouts at the visited synopsis nodes,
    with node ids replaced by dense first-visit numbers — invariant
    under any consistent renaming of synopsis nodes, so payload-only
    refinements and structure-preserving re-partitions keep it
    stable. *)

val run : t -> float
(** Evaluate a compiled plan (the estimate of its embedding). Counted
    under [plan.runs]. The returned float is boxed by the caller's
    binding (we compile without flambda); the interpreter itself does
    not allocate. *)

val run_batch : t array -> float array -> unit
(** [run_batch ts out] stores [run ts.(i)] into [out.(i)] for every
    plan, without boxing any intermediate result — the zero-allocation
    entry point ([Invalid_argument] when [out] is shorter than
    [ts]). *)

val valid : t -> Sketch.t -> bool
(** Whether the plan may be reused for [sketch] as-is: the same
    sketch, or the same synopsis graph with unchanged histograms
    (physically, or by interned-table identity) and value summaries at
    every synopsis node the plan reads. XBUILD's incremental rebuilds
    share summary objects across candidates, so most non-structural
    refinements keep most plans valid. *)

val repatch : t -> Sketch.t -> t option
(** Payload-phase-only recompilation: when [sketch] shares the plan's
    synopsis and the dimension structure of every histogram the plan
    enumerates is unchanged, rebuild the bucket tables and float
    constants onto the existing skeleton. [None] when the structure
    phase would have to rerun. Counted under [plan.repatches], timed
    under [plan.repatch_ns]. *)

val compile_roots : Sketch.t -> Embed.enode list -> t array
(** Compile every embedding of one query, in enumeration order. *)

val run_all : t array -> float
(** Sum of {!run} over the plans, in order — the query estimate.
    Timed under [plan.run_ns]. *)

val estimate_once : Sketch.t -> Embed.enode list -> float
(** Compile-and-run without caching (for one-shot sketches, e.g.
    XBUILD's structural candidates that keep no cache). *)

(** {1 Plan cache}

    Keyed like the embedding cache — one synopsis by physical
    identity, queries by {!Embed.cache_key} — and governed by the same
    single-owner freeze discipline: one domain warms and thaws, worker
    domains read lock-free after {!freeze} and never insert.

    A cached entry is reused directly when the caller's embeddings are
    physically the cached ones and every plan still {!valid}-ates
    ([plan.cache_hits]). A stale entry is {e repaired} plan-by-plan:
    payload drift repatches, structure drift adopts a cached skeleton
    or recompiles. Repairs count under [plan.cache_invalidations],
    split by cause into [plan.invalidation{cause=payload|structure}].
    A cold key ([plan.cache_misses]), or an entry whose embeddings
    were re-enumerated (an eviction, counted only under
    [plan.invalidation{cause=evict}]), builds each plan through the
    process-global skeleton store: a structure compiled once, for any
    cache or synopsis, is adopted by a payload-only rebuild under the
    structural renaming of {!Embed.structural_remap}. That store is the
    only path by which plans cross synopses. *)

type cache

val create_cache : ?tiered:bool -> Xtwig_synopsis.Graph_synopsis.t -> cache
(** [tiered] (default false) opts the cache into tiered execution:
    when the caller supplies an interpreter ({!estimate_cached}'s
    [interp]), a cold structure's first sighting within a generation
    (one thaw/freeze phase) is answered by the reference evaluator
    instead of the compiler; only structures that recur across
    generations — the durable workload — compile, and a frozen tiered
    cache never compiles. Untiered caches keep the compile-always
    contract. *)

val cache_synopsis : cache -> Xtwig_synopsis.Graph_synopsis.t
val freeze : cache -> unit
val thaw : cache -> unit

(** The costliest mechanism a fill used for any of its plans, in
    increasing order of cost. *)
type tier =
  | Hit  (** every plan served from the cache as-is *)
  | Repatch  (** a stale entry's payload constants were rebuilt *)
  | Adoption  (** a cached skeleton was adopted (payload-only rebuild) *)
  | Compile  (** at least one plan ran the structure phase *)

val plans_cached :
  cache -> key:string -> Sketch.t -> Embed.enode list -> t array * tier
(** Get-or-compile the plans of one query ([key] is its
    {!Embed.cache_key}; [roots] its embeddings for [sketch]), with the
    tier the fill took. Never tiered: always returns plans. *)

val estimate_cached :
  ?interp:(Embed.enode -> float) ->
  cache ->
  key:string ->
  Sketch.t ->
  Embed.enode list ->
  float
(** [run_all (plans_cached ...)]. [interp] enables tiered execution:
    the first sighting of a cold structure that cannot adopt a cached
    skeleton is evaluated by [interp] (the caller's reference
    evaluator — bit-identical to a compiled plan by construction)
    instead of paying for a compile; only a structure seen again under
    the same key in a later generation compiles. Counted under
    [plan.interp_estimates]. *)
