(* Property tests for compiled-plan repatch eligibility: every
   refinement-op kind must take the cache path its documented class
   promises — payload-only ops (edge-refine, value-refine) never reach
   the structure phase of the compiler; structure-changing ops may
   recompile — and either way the cached estimates stay bit-equal to
   the reference evaluator on the refined sketch. *)

module Testgen = Xtwig_testgen.Testgen
module Sketch = Xtwig_sketch.Sketch
module Refinement = Xtwig_sketch.Refinement
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Plan = Xtwig_sketch.Plan
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Counters = Xtwig_util.Counters

let payload_class = function
  | Refinement.Edge_refine _ | Refinement.Value_refine _ -> true
  | Refinement.B_stabilize _ | Refinement.F_stabilize _
  | Refinement.Edge_expand _ | Refinement.Value_split _ -> false

(* One generated document with its default sketch, a small workload,
   and one sampled candidate pool: score every candidate through a
   warmed shared plan cache (the XBUILD inner-loop shape) and check
   the class contract plus bit-equality. *)
let prop_refinement_classes =
  QCheck2.Test.make
    ~name:"op classes: payload ops repatch (0 compiles), all ops bit-equal"
    ~count:40
    QCheck2.Gen.(pair Testgen.doc_with_sketch (0 -- 10_000))
    (fun ((doc, sk), seed) ->
      let prng = Prng.create seed in
      let queries =
        Wgen.generate { Wgen.paper_p with Wgen.n_queries = 5 } prng doc
      in
      match queries with
      | [] -> true
      | _ ->
          let cands = Refinement.gen_candidates ~count:6 sk prng in
          let cache = Embed.create_cache (Sketch.synopsis sk) in
          let plans = Plan.create_cache (Sketch.synopsis sk) in
          List.for_all
            (fun op ->
              (* re-warm against the base sketch: entries left behind by
                 the previous candidate's structure are repatched (or
                 recompiled) back to [sk]'s, so each candidate starts
                 from the state the XBUILD base pass would leave *)
              List.iter
                (fun q -> ignore (Est.estimate ~cache ~plans sk q))
                queries;
              let refined = Refinement.apply sk op in
              let same_syn = Sketch.synopsis refined == Sketch.synopsis sk in
              Counters.reset_all ();
              let bit_equal =
                if same_syn then
                  (* payload ops and same-synopsis structural ops share
                     the warmed caches, like XBUILD's non-split
                     candidates *)
                  List.for_all
                    (fun q ->
                      Float.equal
                        (Est.estimate ~cache ~plans refined q)
                        (Reference_eval.estimate refined q))
                    queries
                else begin
                  (* synopsis-replacing ops get fresh caches, like
                     XBUILD's split candidates; the skeletons compiled
                     for the warmed cache are adopted where the
                     partition shape is unchanged *)
                  let c2 = Embed.create_cache (Sketch.synopsis refined) in
                  let p2 = Plan.create_cache (Sketch.synopsis refined) in
                  List.for_all
                    (fun q ->
                      Float.equal
                        (Est.estimate ~cache:c2 ~plans:p2 refined q)
                        (Reference_eval.estimate refined q))
                    queries
                end
              in
              let class_ok =
                (* payload-only ops keep the synopsis and must never
                   pay for the structure phase; structural ops may
                   repatch (no-op or shape-preserving) or recompile *)
                if payload_class op then
                  same_syn && Counters.get "plan.compiles" = 0
                else true
              in
              if not bit_equal then
                QCheck2.Test.fail_reportf "estimates diverge under %s"
                  (Refinement.kind_name op);
              if not class_ok then
                QCheck2.Test.fail_reportf
                  "%s compiled %d plans (payload class promises repatch)"
                  (Refinement.kind_name op)
                  (Counters.get "plan.compiles");
              true)
            cands)

(* The structural signature is what keys repatch-first behaviour:
   payload-only refinements must keep every plan's signature, and a
   recompile against the refined sketch agrees. *)
let prop_signature_stable_under_payload =
  QCheck2.Test.make
    ~name:"structural signature invariant under payload-only ops" ~count:40
    QCheck2.Gen.(pair Testgen.doc_with_sketch (0 -- 10_000))
    (fun ((doc, sk), seed) ->
      let prng = Prng.create seed in
      let queries =
        Wgen.generate { Wgen.paper_p with Wgen.n_queries = 4 } prng doc
      in
      let payload_ops =
        List.filter payload_class (Refinement.gen_candidates ~count:8 sk prng)
      in
      match (queries, payload_ops) with
      | [], _ | _, [] -> true
      | _ ->
          let syn = Sketch.synopsis sk in
          List.for_all
            (fun op ->
              let refined = Refinement.apply sk op in
              List.for_all
                (fun q ->
                  let embs = Embed.embeddings syn q in
                  let before = Plan.compile_roots sk embs in
                  let after = Plan.compile_roots refined embs in
                  Array.for_all2
                    (fun a b -> Plan.signature a = Plan.signature b)
                    before after)
                queries)
            payload_ops)

let () =
  Alcotest.run "plan_props"
    [
      ( "repatch-eligibility",
        List.map QCheck_alcotest.to_alcotest
          [ prop_refinement_classes; prop_signature_stable_under_payload ] );
    ]
