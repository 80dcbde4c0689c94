(** Deterministic failpoint injection.

    A {e failpoint} is a named hook compiled into a risky seam of the
    system — a WAL fsync, a frame send, a batch commit.  When nothing is
    armed the hook is a single load-and-branch on a global flag (no
    allocation, no lock, no hashing), so instrumented code pays nothing in
    production.  When a point is armed it fires a deterministic, seeded
    {!action}: raise, cut a write short, stall, drop a frame, or kill the
    process dead (SIGKILL — no flushes, no [at_exit]).

    Arming is controlled three ways, all sharing the same {e spec} grammar
    ({!arm_spec}):
    - the [YOUTOPIA_FAILPOINTS] environment variable, parsed at module
      initialisation (so the real server binary can be crashed from a
      harness without any code path knowing about it);
    - this API;
    - the [ADMIN|…|failpoint] wire command (see {!Net.Server}).

    Spec grammar (examples: [kill], [3->kill], [50%drop],
    [error(disk gone)], [2->partial(17)!]):
    {v
      spec    := [INT "%"] [INT "->"] action ["!"]
      action  := "error" [ "(" message ")" ]
               | "partial" "(" INT ")"
               | "delay" "(" SECONDS ")"
               | "drop" | "kill"
    v}
    [N%] fires with probability N/100 per eligible hit (drawn from the
    seeded RNG, see {!set_seed}); [N->] makes hits 1..N-1 pass untouched
    (trigger on the Nth hit); a trailing [!] disarms the point after its
    first firing (one-shot).

    Determinism: with a fixed seed and a single-threaded hit sequence,
    the exact same hits fire on every run.  Hit counting only happens on
    armed points — a disarmed point is not tracked at all. *)

type action =
  | Error of string  (** raise {!Injected} at the point *)
  | Partial of int  (** cut the guarded write to at most this many units *)
  | Delay of float  (** sleep this many seconds, then pass *)
  | Drop  (** skip the guarded operation (e.g. swallow a frame) *)
  | Kill  (** SIGKILL the process: a crash, not an exit *)

exception Injected of string * string
(** [Injected (point, detail)] — the armed action was [Error] (or an
    action meaningless at that call site, surfaced loudly). *)

val enabled : unit -> bool
(** At least one point is armed.  The hot-path hooks check exactly this. *)

(* ---------------- instrumentation hooks ---------------- *)

val point : string -> unit
(** The plain hook.  Disabled: free.  Armed and firing: [Error] raises
    {!Injected}, [Delay] sleeps, [Kill] kills the process; [Partial] and
    [Drop] make no sense at a unit point and raise {!Injected} too. *)

val cut : string -> len:int -> int option
(** Hook for a write of [len] units (bytes, lines).  [Some n] means the
    caller must write only the first [n] units and then fail as if the
    rest never reached the medium: [Partial k] yields [Some (min k len)],
    [Drop] yields [Some 0].  [None] means proceed normally ([Delay]
    sleeps first; [Error] raises; [Kill] kills). *)

val skip : string -> bool
(** Hook for a droppable operation (sending a frame, shipping a batch).
    [true] means silently skip it ([Drop] or [Partial]); [Error] raises,
    [Delay] sleeps then [false], [Kill] kills. *)

val passes : string -> bool
(** {!point} for a seam whose caller survives an injected error: [Error]
    yields [false] instead of raising. *)

(* ---------------- arming ---------------- *)

val arm :
  ?from_hit:int -> ?one_shot:bool -> ?probability:float -> string -> action -> unit
(** Arm [point] with [action].  [from_hit] (default 1) is the first hit
    that may fire; [one_shot] (default false) disarms after the first
    firing; [probability] (default 1.) gates each eligible hit through
    the seeded RNG.  Re-arming an armed point replaces it (counters
    reset). *)

val arm_spec : string -> string -> (unit, string) result
(** [arm_spec point spec] — parse [spec] (grammar above) and arm. *)

val parse_pairs : string -> (string, string) result
(** Parse and arm a [;]-separated [point=spec] list (the environment /
    wire format).  [Ok summary] names every armed point. *)

val disarm : string -> unit
(** Disarm one point (idempotent). *)

val disarm_all : unit -> unit
(** Disarm everything; {!enabled} becomes false.  The seed survives. *)

val set_seed : int -> unit
(** Reseed the RNG behind probability specs.  Same seed + same hit
    sequence = same firings. *)

(* ---------------- observation ---------------- *)

val hits : string -> int
(** Times an armed point was reached (0 for unarmed/unknown points). *)

val fired : string -> int
(** Times it actually fired. *)

val list : unit -> string list
(** One line per armed point: [name=spec hits=H fired=F], sorted. *)

val init_from_env : unit -> unit
(** Read [YOUTOPIA_FAULT_SEED] and [YOUTOPIA_FAILPOINTS] (format:
    [point=spec;point=spec…]).  Malformed entries are reported on stderr
    and skipped.  Runs once automatically when the library is linked and
    initialised; callable again for tests. *)
