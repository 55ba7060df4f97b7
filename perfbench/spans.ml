type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false
let buf : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let clear () =
  buf := [];
  open_ids := [];
  next_id := 0

let recorded () = List.rev !buf

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start_ns = Monotonic_clock.now () in
    let close () =
      let stop_ns = Monotonic_clock.now () in
      open_ids := List.tl !open_ids;
      buf := { id; parent; name; req; start_ns; stop_ns } :: !buf
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let union_ns ~start_ns ~stop_ns intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start_ns and b = min b stop_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (
        match cur with None -> acc | Some (a, b) -> Int64.add acc (Int64.sub b a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when Int64.compare a cb <= 0 ->
            go acc (Some (ca, max cb b)) rest
        | Some (ca, cb) -> go (Int64.add acc (Int64.sub cb ca)) (Some (a, b)) rest)
  in
  go 0L None clipped

let self_ns s children =
  Int64.sub (Int64.sub s.stop_ns s.start_ns)
    (union_ns ~start_ns:s.start_ns ~stop_ns:s.stop_ns
       (List.map (fun c -> (c.start_ns, c.stop_ns)) children))

type tree = { label : string; self_s : float; calls : int; sub : tree list }

let secs ns = Int64.to_float ns /. 1e9

let tree spans ~root =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  let children s = Hashtbl.find_all kids s.id in
  (* merge the spans of one parent by name: self times and call counts
     add, and their children merge one level down *)
  let rec merge group =
    let names = List.sort_uniq String.compare (List.map (fun s -> s.name) group) in
    List.map
      (fun name ->
        let same = List.filter (fun s -> String.equal s.name name) group in
        {
          label = name;
          self_s =
            List.fold_left (fun acc s -> acc +. secs (self_ns s (children s))) 0.0 same;
          calls = List.length same;
          sub = merge (List.concat_map children same);
        })
      names
    |> List.sort (fun a b -> Float.compare b.self_s a.self_s)
  in
  let direct = children root in
  {
    label = root.name;
    self_s = 0.0;
    calls = 1;
    sub =
      merge direct
      @ [
          {
            label = "unattributed";
            self_s = secs (self_ns root direct);
            calls = 1;
            sub = [];
          };
        ];
  }

let rec total_s t = List.fold_left (fun acc c -> acc +. total_s c) t.self_s t.sub

let pp_tree ppf t =
  let rec go depth t =
    Format.fprintf ppf "%s%-*s self %10.6f s  total %10.6f s  calls %d@\n"
      (String.make (2 * depth) ' ')
      (40 - (2 * depth))
      t.label t.self_s (total_s t) t.calls;
    List.iter (go (depth + 1)) t.sub
  in
  go 0 t

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_ns\":%Ld,\
         \"end_ns\":%Ld}"
        s.id s.parent s.name s.req s.start_ns s.stop_ns)
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
