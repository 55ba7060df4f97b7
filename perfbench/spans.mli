(** The benchmark's own spans: one per call it makes into a layer of
    the program, kept in memory and written out when the run ends.

    Spans nest by call structure: a span opened while another is open
    becomes its child. A layer's self time is its span's duration minus
    the part of that interval its child spans cover, so the self times
    of a span tree always add up to the root's duration. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  req : int;  (** request id; [-1] when the span is not tied to one *)
  start_ns : int64;
  stop_ns : int64;
}

val enabled : bool ref
(** Off by default; {!with_span} only runs its thunk while off. *)

val with_span : ?req:int -> string -> (unit -> 'a) -> 'a
(** Time the thunk as a span named [name], child of the innermost open
    span. Recorded also when the thunk raises. *)

val recorded : unit -> span list
(** Every span recorded so far, in closing order. *)

val clear : unit -> unit

val union_ns : start_ns:int64 -> stop_ns:int64 -> (int64 * int64) list -> int64
(** Length of the union of the intervals, each clipped to
    [[start_ns, stop_ns]]. *)

val self_ns : span -> span list -> int64
(** [self_ns s children] is [s]'s duration minus the union of its
    children's intervals. *)

type tree = { label : string; self_s : float; calls : int; sub : tree list }

val tree : span list -> root:span -> tree
(** The self-time tree under [root]: descendants merged by name path,
    children sorted by descending self time, and the root's own self
    time shown as a trailing [unattributed] leaf. *)

val total_s : tree -> float
(** Sum of every self time in the tree. *)

val pp_tree : Format.formatter -> tree -> unit

val to_json : span list -> string
(** One JSON object per span, in an array. *)
