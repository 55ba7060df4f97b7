type cpu = { utime : int; stime : int }

let ticks_per_s = 100.0

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

let parse_pid_stat text =
  match String.rindex_opt text ')' with
  | None -> None
  | Some i -> (
      (* after the command name: field 3 (state) is element 0 *)
      let rest = words (String.sub text (i + 1) (String.length text - i - 1)) in
      match (List.nth_opt rest 11, List.nth_opt rest 12) with
      | Some u, Some s -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some utime, Some stime -> Some { utime; stime }
          | _ -> None)
      | _ -> None)

let parse_vmhwm_kb text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match words (String.trim line) with
         | "VmHWM:" :: kb :: _ -> int_of_string_opt kb
         | _ -> None)

type host = { total : int; steal : int }

let parse_host text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match words line with
         | "cpu" :: fields -> (
             let ints = List.filter_map int_of_string_opt fields in
             match ints with
             | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _
               ->
                 let busy = user + nice + system + irq + softirq in
                 Some { total = busy + idle + iowait + steal; steal }
             | _ -> None)
         | _ -> None)

let steal_frac a b =
  let dt = b.total - a.total in
  if dt <= 0 then 0.0 else float_of_int (b.steal - a.steal) /. float_of_int dt

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let pid_cpu_s pid =
  Option.bind (read_file (Printf.sprintf "/proc/%d/stat" pid)) parse_pid_stat
  |> Option.map (fun c -> float_of_int (c.utime + c.stime) /. ticks_per_s)

let pid_vmhwm_mb pid =
  Option.bind (read_file (Printf.sprintf "/proc/%d/status" pid)) parse_vmhwm_kb
  |> Option.map (fun kb -> float_of_int kb /. 1024.0)

let host () = Option.bind (read_file "/proc/stat") parse_host
