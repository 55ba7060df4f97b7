(** Readers for the Linux [/proc] files the benchmark measures other
    processes and the host through. The parsers take the file's text,
    so they are testable without a live process. *)

type cpu = { utime : int; stime : int }
(** Clock ticks ([USER_HZ], 100 per second on Linux). *)

val parse_pid_stat : string -> cpu option
(** Fields 14 and 15 of [/proc/<pid>/stat]. The command name (field 2)
    is parenthesised and may itself contain spaces and parentheses, so
    fields are counted from the last [')']. *)

val parse_vmhwm_kb : string -> int option
(** The [VmHWM:] line of [/proc/<pid>/status], in kB. *)

type host = { total : int; steal : int }
(** Aggregate ticks of the [cpu] line of [/proc/stat]: [total] sums
    user, nice, system, idle, iowait, irq, softirq and steal (guest
    time is already inside user). *)

val parse_host : string -> host option

val steal_frac : host -> host -> float
(** Share of the host's CPU ticks between two readings that the
    hypervisor stole; [0.] when no tick elapsed. *)

val pid_cpu_s : int -> float option
(** User+system CPU seconds of a live process. *)

val pid_vmhwm_mb : int -> float option
val host : unit -> host option
(** The current [/proc/stat] reading. *)
