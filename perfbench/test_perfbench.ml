(* The benchmark's own arithmetic: percentile admission, self time and
   the /proc parsers. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_percentile_admission () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (* p99 needs ten samples beyond it: 1000 samples have exactly ten *)
  Alcotest.(check (option feq))
    "p99 of 1000" (Some 990.0)
    (Quant.percentile (xs 1000) 99.0);
  Alcotest.(check (option feq)) "p99 of 999" None (Quant.percentile (xs 999) 99.0);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Quant.beyond ~n:1000 99.0);
  (* p50 of 20 has ten samples above it, of 19 only nine *)
  Alcotest.(check (option feq)) "p50 of 20" (Some 10.0) (Quant.percentile (xs 20) 50.0);
  Alcotest.(check (option feq)) "p50 of 19" None (Quant.percentile (xs 19) 50.0);
  Alcotest.(check (option feq)) "empty" None (Quant.percentile [||] 50.0)

let test_median () =
  Alcotest.check feq "odd" 2.0 (Quant.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check feq "even" 2.5 (Quant.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Quant.median: no samples") (fun () ->
      ignore (Quant.median [||]))

let span ?(parent = -1) id name a b =
  {
    Spans.id;
    parent;
    name;
    req = -1;
    start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b;
  }

let test_self_time () =
  let root = span 0 "task" 0 100 in
  (* overlapping children count once; a child sticking out of its
     parent is clipped to the parent's interval *)
  let kids =
    [
      span ~parent:0 1 "a" 10 30;
      span ~parent:0 2 "b" 20 40;
      span ~parent:0 3 "c" 90 120;
    ]
  in
  let intervals = List.map (fun s -> (s.Spans.start_ns, s.Spans.stop_ns)) kids in
  Alcotest.(check int64)
    "union" 40L
    (Spans.union_ns ~start_ns:0L ~stop_ns:100L intervals);
  Alcotest.(check int64)
    "self = span - union of children" 60L (Spans.self_ns root kids);
  Alcotest.(check int64) "leaf self = duration" 20L (Spans.self_ns (List.hd kids) [])

let test_tree_sums () =
  let spans =
    [
      span 0 "task" 0 1000;
      span ~parent:0 1 "parse" 0 100;
      span ~parent:0 2 "build" 100 900;
      span ~parent:2 3 "truth" 200 300;
      span ~parent:2 4 "truth" 400 450;
      span ~parent:2 5 "wgen" 500 600;
    ]
  in
  let t = Spans.tree spans ~root:(List.hd spans) in
  Alcotest.check feq "parts + unattributed = task" 1e-6 (Spans.total_s t);
  let find l = List.find (fun c -> String.equal c.Spans.label l) in
  let build = find "build" t.Spans.sub in
  Alcotest.check feq "build self" 550e-9 build.Spans.self_s;
  Alcotest.check feq "truth merged" 150e-9 (find "truth" build.Spans.sub).Spans.self_s;
  Alcotest.(check int) "truth calls" 2 (find "truth" build.Spans.sub).Spans.calls;
  Alcotest.check feq "unattributed" 100e-9
    (find "unattributed" t.Spans.sub).Spans.self_s

let test_with_span_nesting () =
  Spans.clear ();
  Spans.enabled := true;
  let v =
    Spans.with_span "outer" (fun () ->
        Spans.with_span ~req:7 "inner" (fun () -> 41) + 1)
  in
  (try Spans.with_span "raises" (fun () -> failwith "x") with Failure _ -> ());
  Spans.enabled := false;
  ignore (Spans.with_span "off" (fun () -> ()));
  Alcotest.(check int) "value" 42 v;
  match Spans.recorded () with
  | [ inner; outer; raised ] ->
      Alcotest.(check int) "inner parent" outer.Spans.id inner.Spans.parent;
      Alcotest.(check int) "inner req" 7 inner.Spans.req;
      Alcotest.(check int) "outer is a root" (-1) outer.Spans.parent;
      Alcotest.(check string) "raising span recorded" "raises" raised.Spans.name;
      Alcotest.(check int) "root after close" (-1) raised.Spans.parent
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_pid_stat () =
  let line =
    "4242 (xtw igd) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
     517 83 0 0 20 0 3 0 98765 123456789 2345 18446744073709551615 1 1 0 0 0 0"
  in
  Alcotest.(check (option (pair int int))) "utime/stime after the last paren"
    (Some (517, 83))
    (Option.map
       (fun c -> (c.Procfs.utime, c.Procfs.stime))
       (Procfs.parse_pid_stat line));
  Alcotest.(check bool) "truncated" true (Procfs.parse_pid_stat "12 (a) S 1 2" = None);
  Alcotest.(check bool) "garbage" true (Procfs.parse_pid_stat "no parens" = None)

let test_status () =
  let text = "Name:\txtwigd\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 20480) (Procfs.parse_vmhwm_kb text);
  Alcotest.(check (option int)) "missing" None (Procfs.parse_vmhwm_kb "Name:\tx\n")

let test_host () =
  let a =
    "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 0 0\nintr 1 2\n"
  in
  let b = "cpu  150 5 70 900 10 1 4 60 9 0\n" in
  match (Procfs.parse_host a, Procfs.parse_host b) with
  | Some ha, Some hb ->
      Alcotest.(check int) "total excludes guest" 1000 ha.Procfs.total;
      Alcotest.(check int) "steal" 30 ha.Procfs.steal;
      Alcotest.check feq "steal share" (30.0 /. 200.0) (Procfs.steal_frac ha hb);
      Alcotest.check feq "no ticks" 0.0 (Procfs.steal_frac ha ha)
  | _ -> Alcotest.fail "parse_host"

let () =
  Alcotest.run "perfbench"
    [
      ( "quant",
        [
          Alcotest.test_case "percentile needs ten beyond" `Quick
            test_percentile_admission;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time is span minus union of children" `Quick
            test_self_time;
          Alcotest.test_case "tree parts sum to the root" `Quick test_tree_sums;
          Alcotest.test_case "nesting and parents" `Quick test_with_span_nesting;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "pid stat" `Quick test_pid_stat;
          Alcotest.test_case "status VmHWM" `Quick test_status;
          Alcotest.test_case "host steal" `Quick test_host;
        ] );
    ]
