(* Compiled-plan tests: [Estimator.estimate] (compile-then-run) must
   be bit-identical to [Reference_eval.estimate] (the recursive
   evaluator) — across datasets, workloads and refinement budgets —
   the plan cache must stay correct through reuse, histogram-only
   invalidation (the repatch path) and structural invalidation, and
   tiered caches must keep the tier contract. *)

module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Refinement = Xtwig_sketch.Refinement
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Plan = Xtwig_sketch.Plan
module Xbuild = Xtwig_sketch.Xbuild
module Edge_hist = Xtwig_hist.Edge_hist
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Counters = Xtwig_util.Counters
module Fault = Xtwig_fault.Fault

let docs =
  lazy
    [
      ("imdb", Xtwig_datagen.Imdb.generate ~scale:0.03 ());
      ("sprot", Xtwig_datagen.Sprot.generate ~scale:0.03 ());
    ]

let queries_of doc =
  Wgen.generate { Wgen.paper_p with Wgen.n_queries = 30 } (Prng.create 17) doc

(* An XBUILD run at [budget_mult] x the coarsest size: exercises plans
   over sketches that mix refined histograms, expanded dimensions,
   value summaries and structural splits. *)
let refined doc ~budget_mult =
  let truth q = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * budget_mult in
  Xbuild.build ~seed:5 ~candidates:4 ~max_steps:12 ~workload ~truth ~budget doc

(* 1. Compiled estimates are bit-equal to the reference evaluator on
   every dataset, at every refinement budget, for every query. *)
let test_compiled_equals_reference () =
  List.iter
    (fun (name, doc) ->
      let queries = queries_of doc in
      let sketches =
        ("coarsest", Sketch.default_of_doc doc)
        :: List.map
             (fun m -> (Printf.sprintf "budget x%d" m, refined doc ~budget_mult:m))
             [ 2; 4; 8 ]
      in
      List.iter
        (fun (sname, sk) ->
          List.iteri
            (fun i q ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s: q%d" name sname i)
                (Reference_eval.estimate sk q)
                (Est.estimate sk q))
            queries)
        sketches)
    (Lazy.force docs)

(* 2. The plan cache serves hits without changing values. *)
let test_plan_cache_hits () =
  let _, doc = List.hd (Lazy.force docs) in
  let sk = refined doc ~budget_mult:4 in
  let queries = queries_of doc in
  let cache = Embed.create_cache (Sketch.synopsis sk) in
  let plans = Plan.create_cache (Sketch.synopsis sk) in
  Counters.reset_all ();
  List.iter
    (fun q ->
      let plain = Reference_eval.estimate sk q in
      let cold = Est.estimate ~cache ~plans sk q in
      let warm = Est.estimate ~cache ~plans sk q in
      Alcotest.(check (float 0.0)) "cold cached estimate" plain cold;
      Alcotest.(check (float 0.0)) "warm cached estimate" plain warm)
    queries;
  Alcotest.(check bool)
    "plan cache hits recorded" true
    (Counters.get "plan.cache_hits" > 0);
  (* a frozen cache still serves valid plans *)
  Plan.freeze plans;
  let q = List.hd queries in
  Alcotest.(check (float 0.0))
    "frozen plan cache still correct"
    (Reference_eval.estimate sk q)
    (Est.estimate ~cache ~plans sk q)

(* One histogram-only op (same synopsis, same dimension structure) and
   one structure-changing op for the invalidation tests. The refined
   node must carry a histogram some query's embeddings actually visit,
   or every cached plan stays valid and nothing invalidates. *)
(* Synopsis nodes appearing as tree nodes of some embedding — the only
   nodes whose histograms compiled plans consult ([visited_nodes] also
   lists branch-predicate nodes, which plans read through the synopsis,
   not through histograms). *)
let tree_nodes syn queries =
  let seen = Hashtbl.create 32 in
  let rec walk (e : Embed.enode) =
    Hashtbl.replace seen e.Embed.snode ();
    List.iter (List.iter walk) e.Embed.kids
  in
  List.iter (fun q -> List.iter walk (Embed.embeddings syn q)) queries;
  List.sort_uniq compare (Hashtbl.fold (fun k () a -> k :: a) seen [])

let hist_only_op sk queries =
  let cfg = Sketch.config sk in
  let syn = Sketch.synopsis sk in
  let visited = tree_nodes syn queries in
  (* plan validity keys on the interned bucket tables, so the op only
     invalidates if some table at the node physically changes (a
     refinement of an already-exact histogram re-interns to the same
     table and leaves every plan valid) *)
  let changes_a_table n =
    let try_hist i =
      let op = Refinement.Edge_refine { node = n; hist = i; extra_buckets = 4 } in
      let applied = Refinement.apply sk op in
      if
        applied != sk
        && Sketch.synopsis applied == syn
        && List.exists2
             (fun (_, a) (_, b) -> Edge_hist.table a != Edge_hist.table b)
             (Sketch.hists sk n) (Sketch.hists applied n)
      then Some applied
      else None
    in
    List.find_map try_hist (List.mapi (fun i _ -> i) cfg.Sketch.especs.(n))
  in
  match List.find_map changes_a_table visited with
  | Some r -> r
  | None -> Alcotest.failf "no table-changing histogram refinement found"

let structural_op sk queries =
  let syn = Sketch.synopsis sk in
  let nodes = tree_nodes syn queries in
  (* "structural" from the plan's point of view: either the dimension
     shape of a tree node's histograms changes (repatch must bail) or
     the synopsis itself does (the cache is bypassed entirely) *)
  let dims_changed a b =
    List.compare_lengths a b <> 0
    || List.exists2 (fun (da, _) (db, _) -> da <> db) a b
  in
  let changes n =
    let expand =
      List.find_map
        (fun (s, d) ->
          let kind = if s = n then Sketch.Forward else Sketch.Backward in
          let op =
            Refinement.Edge_expand
              { node = n; dim = { Sketch.src = s; dst = d; kind }; into = None }
          in
          let applied = Refinement.apply sk op in
          if
            applied != sk
            && Sketch.synopsis applied == syn
            && dims_changed (Sketch.hists sk n) (Sketch.hists applied n)
          then Some applied
          else None)
        (Sketch.dim_edges_of_node sk n)
    in
    match expand with
    | Some _ -> expand
    | None ->
        let applied =
          Refinement.apply sk (Refinement.Value_split { node = n; ways = 2 })
        in
        if applied != sk && Sketch.synopsis applied != syn then Some applied
        else None
  in
  match List.find_map changes nodes with
  | Some r -> r
  | None -> Alcotest.failf "no effective structure-changing op"

(* 3. Refining a histogram invalidates cached plans; the repaired
   (repatched or recompiled) plans are bit-equal to the reference on
   the refined sketch. *)
let test_plan_cache_invalidation () =
  let _, doc = List.hd (Lazy.force docs) in
  (* start from the coarsest sketch: its histograms are lossy, so a
     refinement genuinely changes bucket tables *)
  let sk = Sketch.default_of_doc doc in
  let queries = queries_of doc in
  let cache = Embed.create_cache (Sketch.synopsis sk) in
  let plans = Plan.create_cache (Sketch.synopsis sk) in
  (* warm the cache against [sk] *)
  List.iter (fun q -> ignore (Est.estimate ~cache ~plans sk q)) queries;
  let refined_sk = hist_only_op sk queries in
  Counters.reset_all ();
  List.iteri
    (fun i q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "after Edge_refine: q%d" i)
        (Reference_eval.estimate refined_sk q)
        (Est.estimate ~cache ~plans refined_sk q))
    queries;
  Alcotest.(check bool)
    "invalidations recorded" true
    (Counters.get "plan.cache_invalidations" > 0);
  Alcotest.(check bool)
    "histogram-only invalidation repatches instead of recompiling" true
    (Counters.get "plan.repatches" > 0);
  (* the payload-only op must never reach the structure phase: every
     stale entry is cause=payload, none structure, zero compiles *)
  Alcotest.(check bool)
    "payload cause recorded" true
    (Counters.get "plan.invalidation{cause=payload}" > 0);
  Alcotest.(check int)
    "no structure-cause invalidations" 0
    (Counters.get "plan.invalidation{cause=structure}");
  Alcotest.(check int)
    "payload-only refinement compiles nothing" 0
    (Counters.get "plan.compiles");
  (* re-enumerating the same queries (a fresh embedding cache) replaces
     entries without any sketch drift: an eviction, not an
     invalidation — and the structurally-identical enumeration adopts
     the cached skeletons instead of recompiling *)
  let cache2 = Embed.create_cache (Sketch.synopsis refined_sk) in
  Counters.reset_all ();
  List.iteri
    (fun i q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "re-enumerated: q%d" i)
        (Reference_eval.estimate refined_sk q)
        (Est.estimate ~cache:cache2 ~plans refined_sk q))
    queries;
  Alcotest.(check bool)
    "evictions recorded" true
    (Counters.get "plan.invalidation{cause=evict}" > 0);
  Alcotest.(check int)
    "evictions are not invalidations" 0
    (Counters.get "plan.cache_invalidations");
  Alcotest.(check int)
    "re-enumeration adopts skeletons" 0
    (Counters.get "plan.compiles");
  (* a structure-changing op must fall back to the full compiler and
     still agree with the reference *)
  let structural = structural_op sk queries in
  Counters.reset_all ();
  List.iteri
    (fun i q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "after structural op: q%d" i)
        (Reference_eval.estimate structural q)
        (* [cache2] holds the enumeration the plan entries now carry,
           so a same-synopsis structural op exercises the genuine
           invalidation path rather than an eviction *)
        (Est.estimate ~cache:cache2 ~plans structural q))
    queries;
  Alcotest.(check bool)
    "structural change recompiles" true
    (Counters.get "plan.compiles" > 0);
  if Sketch.synopsis structural == Sketch.synopsis sk then
    (* the plan cache was consulted (same synopsis): the recompiles
       must have been accounted as structure-cause invalidations *)
    Alcotest.(check bool)
      "structure cause recorded" true
      (Counters.get "plan.invalidation{cause=structure}" > 0)

(* 4. The interpreter is a zero-allocation kernel: once the per-domain
   arena has grown to the largest plan, a [run_batch] over every plan
   of every query allocates zero minor words — no closures, no float
   boxing, no scratch arrays. ([Gc.minor_words] itself is [@@noalloc]
   with an unboxed float return, and the samples are stored straight
   into a preallocated float array, so the measurement does not
   perturb the measured.) *)
let test_run_batch_zero_alloc () =
  let _, doc = List.hd (Lazy.force docs) in
  let sk = refined doc ~budget_mult:4 in
  let syn = Sketch.synopsis sk in
  let queries = queries_of doc in
  let per_query =
    List.map
      (fun q -> Plan.compile_roots sk (Embed.embeddings syn q))
      queries
  in
  let plans = Array.concat per_query in
  Alcotest.(check bool) "some plans to run" true (Array.length plans > 0);
  let out = Array.make (Array.length plans) 0.0 in
  let words = Array.make 2 0.0 in
  (* warm-up: grows the arena and faults in the code paths *)
  Plan.run_batch plans out;
  words.(0) <- Gc.minor_words ();
  Plan.run_batch plans out;
  words.(1) <- Gc.minor_words ();
  Alcotest.(check (float 0.0))
    "steady-state run_batch allocates zero minor words" 0.0
    (words.(1) -. words.(0));
  (* and the batch results are the reference estimates *)
  let off = ref 0 in
  List.iteri
    (fun i q ->
      let n = Array.length (List.nth per_query i) in
      let sum = ref 0.0 in
      for j = !off to !off + n - 1 do
        sum := !sum +. out.(j)
      done;
      off := !off + n;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "batch sum equals reference: q%d" i)
        (Reference_eval.estimate sk q)
        !sum)
    queries

(* 5. Differential under injected faults: when plan/embedding cache
   fills fail intermittently and the caller retries, every eventually
   successful estimate — including those served by plans repatched
   after a histogram refinement — is still bit-equal to the reference
   evaluator, and the cache never serves a value computed from a
   half-filled entry. *)
let test_plan_fill_faults_retry_differential () =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let _, doc = List.hd (Lazy.force docs) in
  let sk = Sketch.default_of_doc doc in
  let queries = queries_of doc in
  let expected = List.map (Reference_eval.estimate sk) queries in
  let cache = Embed.create_cache (Sketch.synopsis sk) in
  let plans = Plan.create_cache (Sketch.synopsis sk) in
  let rec with_retry k f =
    match f () with
    | v -> v
    | exception Fault.Injected _ when k > 0 -> with_retry (k - 1) f
  in
  (match Fault.parse_spec "seed=11;plan.fill:p0.5;embed.fill:p0.3" with
  | Error e -> Alcotest.fail ("bad spec: " ^ e)
  | Ok sp -> Fault.install sp);
  List.iteri
    (fun i q ->
      let got = with_retry 100 (fun () -> Est.estimate ~cache ~plans sk q) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "retried fill: q%d" i)
        (List.nth expected i) got)
    queries;
  Alcotest.(check bool) "the scenario actually fired" true
    (Fault.injected_count () > 0);
  (* warm entries survived the storm: with injection off, the cache
     serves every query, still bit-equal *)
  Fault.disable ();
  List.iteri
    (fun i q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "post-storm cache: q%d" i)
        (List.nth expected i)
        (Est.estimate ~cache ~plans sk q))
    queries;
  (* a histogram refinement now forces the repatch path; faulting its
     fills and retrying must converge to the refined reference *)
  let refined_sk = hist_only_op sk queries in
  (match Fault.parse_spec "seed=12;plan.fill:p0.5" with
  | Error e -> Alcotest.fail ("bad spec: " ^ e)
  | Ok sp -> Fault.install sp);
  List.iteri
    (fun i q ->
      let got =
        with_retry 100 (fun () -> Est.estimate ~cache ~plans refined_sk q)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "repatch under faults: q%d" i)
        (Reference_eval.estimate refined_sk q)
        got)
    queries

(* A synopsis-replacing refinement touching a node some query visits:
   the shape of XBUILD's split candidates. *)
let split_op sk queries =
  let syn = Sketch.synopsis sk in
  let try_op op =
    let applied = Refinement.apply sk op in
    if Sketch.synopsis applied != syn then Some applied else None
  in
  let splits n =
    List.filter_map
      (fun (e : G.edge) ->
        if e.G.f_stable then None
        else Some (Refinement.F_stabilize { src = n; dst = e.G.dst }))
      (G.out_edges syn n)
    @ List.filter_map
        (fun (e : G.edge) ->
          if e.G.b_stable then None
          else Some (Refinement.B_stabilize { src = e.G.src; dst = n }))
        (G.in_edges syn n)
  in
  match
    List.find_map
      (fun n -> List.find_map try_op (splits n))
      (tree_nodes syn queries)
  with
  | Some r -> r
  | None -> Alcotest.failf "no synopsis-replacing refinement found"

(* 6. The tier contract of a [~tiered:true] cache (XBUILD's): a cold
   key's first sighting is interpreted, re-sightings in the same
   generation stay interpreted, a frozen cache never compiles, a key
   seen again in a later generation compiles, and a fresh tiered
   cache on a split candidate's synopsis compiles nothing in its
   first generation. Every answer is bit-equal to the reference. The
   skeleton store is process-global, so a first sighting may also
   adopt a skeleton compiled elsewhere — that is not a compile
   either. XMark is used by no other case here, so most of its
   structures are novel. *)
let test_tier_contract () =
  let doc = Xtwig_datagen.Xmark.generate ~scale:0.03 () in
  let sk = Sketch.default_of_doc doc in
  let syn = Sketch.synopsis sk in
  let queries = queries_of doc in
  let cache = Embed.create_cache syn in
  let plans = Plan.create_cache ~tiered:true syn in
  let pass label sk cache plans =
    let before = Counters.get "plan.compiles" in
    List.iteri
      (fun i q ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: q%d" label i)
          (Reference_eval.estimate sk q)
          (Est.estimate ~cache ~plans sk q))
      queries;
    Counters.get "plan.compiles" - before
  in
  let interp () = Counters.get "plan.interp_estimates" in
  (* generation 2, thawed: first sightings, then re-sightings *)
  Plan.thaw plans;
  let i0 = interp () in
  Alcotest.(check int) "first sightings compile nothing" 0
    (pass "first sighting" sk cache plans);
  Alcotest.(check bool) "first sightings are interpreted" true (interp () > i0);
  let i1 = interp () in
  Alcotest.(check int) "same-generation re-sightings compile nothing" 0
    (pass "same generation" sk cache plans);
  Alcotest.(check bool) "re-sightings are interpreted" true (interp () > i1);
  (* frozen two generations later: the keys are overdue, but a frozen
     cache declines to the interpreter *)
  for _ = 1 to 2 do
    Plan.freeze plans;
    Plan.thaw plans
  done;
  Plan.freeze plans;
  Alcotest.(check int) "a frozen cache never compiles" 0
    (pass "frozen" sk cache plans);
  (* thawed in a later generation: the recurring keys compile, and are
     then served from the cache *)
  Plan.thaw plans;
  Alcotest.(check bool) "a key seen in a later generation compiles" true
    (pass "later generation" sk cache plans > 0);
  let i2 = interp () in
  Alcotest.(check int) "compiled keys are cached" 0
    (pass "cached" sk cache plans);
  Alcotest.(check int) "cached keys are not interpreted" i2 (interp ());
  Plan.freeze plans;
  (* a split candidate: fresh caches on the new synopsis, used in their
     first generation the way XBUILD scores a candidate *)
  let split = split_op sk queries in
  let cache' = Embed.create_cache (Sketch.synopsis split) in
  let plans' = Plan.create_cache ~tiered:true (Sketch.synopsis split) in
  Alcotest.(check int) "split candidate compiles nothing" 0
    (pass "split candidate" split cache' plans');
  Alcotest.(check int) "split candidate re-sighting compiles nothing" 0
    (pass "split candidate again" split cache' plans')

let () =
  Alcotest.run "plan"
    [
      ( "compiled-plans",
        [
          Alcotest.test_case
            "compiled == reference (2 datasets x 4 budgets x 30 queries)" `Slow
            test_compiled_equals_reference;
          Alcotest.test_case "plan cache hits, values unchanged" `Quick
            test_plan_cache_hits;
          Alcotest.test_case "invalidation: repatch + recompile correct" `Quick
            test_plan_cache_invalidation;
          Alcotest.test_case "run_batch allocates zero minor words" `Quick
            test_run_batch_zero_alloc;
          Alcotest.test_case "fill faults + retry: differential vs reference"
            `Quick test_plan_fill_faults_retry_differential;
          Alcotest.test_case "tier contract: interpret cold, compile recurring"
            `Quick test_tier_contract;
        ] );
    ]
