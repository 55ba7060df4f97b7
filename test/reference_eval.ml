(* The differential baseline for compiled plans: the recursive
   reference evaluator ([Estimator.estimate_embedding]) summed over a
   query's embeddings, in enumeration order. Timed under
   [estimator.reference_ns], apart from the production
   [estimator.ns]. *)

module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
module Counters = Xtwig_util.Counters

let t_reference = Counters.timer "estimator.reference_ns"

let estimate sketch twig =
  Counters.time t_reference @@ fun () ->
  List.fold_left
    (fun acc e -> acc +. Xtwig_sketch.Estimator.estimate_embedding sketch e)
    0.0
    (Embed.embeddings (Sketch.synopsis sketch) twig)
