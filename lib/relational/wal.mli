(** Redo-only write-ahead log with configurable commit durability.

    The transaction manager appends one batch of redo records per committed
    transaction, terminated by a commit marker.  How hard the log then
    pushes those bytes toward disk is the {!durability} mode:

    {ul
    {- [Never] — records stay in the channel buffer until close.  Fastest;
       a crash loses everything since the last incidental flush.}
    {- [Flush_per_commit] — one [flush] per commit (the historical
       default).  This only moves bytes into the {e kernel} page cache: it
       survives a process crash but {b not} an OS crash or power loss —
       there is no [fsync].}
    {- [Fsync_per_commit] — one [flush] + one [fsync] per commit.  Full
       single-commit durability at the cost of a disk round-trip per
       transaction.}}

    Every committed batch — a transaction's redo records, or one
    auto-committed DDL record — enters through {!append_commit}, which
    syncs as the mode promises.  Group commit is {!with_batch}: inside a
    scope the per-commit sync is deferred, and the scope end performs one
    sync covering every commit made in it.  A failed append or sync is
    sticky: the log is poisoned, and every later append and scope fails
    loudly with the same error instead of pretending durability.

    Recovery replays every {i complete} batch into a fresh catalog; a torn
    {i batch} tail — any run of undecodable or commit-less trailing lines
    after the last commit marker, which a batch scope can produce — is
    discarded, and {!truncate_torn_tail} physically removes it before the
    log is reopened for append.

    Every commit-terminated batch carries a monotone {e log sequence
    number} (LSN): batch [n] of the database's history has LSN [n],
    counted from 1 and preserved across reopen.  {!truncate_prefix} cuts
    the already-checkpointed prefix, leaving an [Lsn_base] marker that
    records the cut position; such a log can only be replayed on top of a
    checkpoint at or past that LSN (see {!Checkpoint}).

    The format is line-oriented text; field values are percent-escaped so
    separators and newlines never appear raw.  Floats are written in
    {!Value.float_to_exact}'s text, so they read back bit-equal; the
    decoder takes any [float_of_string] text, which older logs hold. *)

type record =
  | Create_table of Schema.t
  | Drop_table of string
  | Insert of string * Tuple.t
  | Delete of string * Tuple.t
  | Update of string * Tuple.t * Tuple.t
  | Commit of int
  | Lsn_base of int
      (** first line of a prefix-truncated log: the LSN of the last batch
          cut away; the next batch in the file has this LSN + 1 *)

(** {1 Durability} *)

type durability =
  | Never  (** buffer only; no flush at commit *)
  | Flush_per_commit
      (** flush to the OS per commit — {b no} crash durability (no fsync) *)
  | Fsync_per_commit  (** flush + fsync per commit *)

val durability_to_string : durability -> string

val durability_of_string : string -> durability option
(** Accepts ["never"], ["flush"] and ["fsync"] (case-insensitive). *)

type io_stats = {
  commits_logged : int;  (** committed batches appended *)
  flushes : int;  (** channel flushes performed *)
  fsyncs : int;  (** fsyncs performed *)
  batched_scopes : int;  (** {!with_batch} scopes entered *)
  batched_commits : int;  (** commits deferred inside those scopes *)
}

(** {1 Codecs} (exposed for tests) *)

val escape : string -> string

val add_escaped : Buffer.t -> depth:int -> string -> unit
(** [add_escaped buf ~depth s] appends [s] escaped [depth] times over (as
    many rounds of {!escape}; [depth = 0] appends it verbatim), in one
    pass. *)

val add_escaped_char : Buffer.t -> depth:int -> char -> unit

(** [unescape s] is total on arbitrary input: a malformed percent-escape
    (truncated or non-hex) is kept literally instead of raising, so torn
    WAL tails and hostile wire payloads decode deterministically. *)
val unescape : string -> string
val encode_value : Value.t -> string
val decode_value : string -> Value.t
val encode_tuple : Tuple.t -> string

val add_tuple : Buffer.t -> depth:int -> Tuple.t -> unit
(** [add_tuple buf ~depth t] appends {!encode_tuple}[ t] escaped [depth]
    times over. *)

val decode_tuple : string -> Tuple.t
val encode_schema : Schema.t -> string
val decode_schema : string -> Schema.t
val encode_record : record -> string
val decode_record : string -> record

(** {1 Log handle} *)

type t

val open_log : ?durability:durability -> string -> t
(** Opens for append, creating the file if needed.  [durability] defaults
    to [Flush_per_commit]. *)

val durability : t -> durability

val set_durability : t -> durability -> unit
(** Takes effect from the next commit (or scope end). *)

val io_stats : t -> io_stats

val reset_io_stats : t -> unit
(** Zero the io counters — called when a freshly recovered database
    attaches, so recovery replay and answer-relation re-creation don't
    pollute bench/admin deltas. *)

val path : t -> string

val last_lsn : t -> int
(** LSN of the last commit-terminated batch appended (0 on a fresh log);
    initialised from the file contents on {!open_log}. *)

val base_lsn : t -> int
(** LSN position at which this log file starts: 0 unless
    {!truncate_prefix} cut an already-checkpointed prefix. *)

val set_on_append : t -> (lsn:int -> record list -> unit) option -> unit
(** Shipping hook for replication: called with every complete batch
    (records followed by the commit marker) as it reaches the log, in
    strict LSN order, while the log's internal lock is held — the hook
    must only enqueue and must never call back into the log.  Unlike
    {!Txn.add_observer} this also sees auto-committed DDL, which bypasses
    the transaction manager. *)

val append_commit : t -> txn_id:int -> record list -> unit
(** The one way to append: the records followed by a commit marker, in
    one buffered write, assigned the next LSN and shipped.  Returns once
    the batch is as durable as the current mode promises; inside
    {!with_batch} the sync is left to the scope end.  A poisoned log
    refuses the batch by re-raising the error that poisoned it; any
    failure of this append past that check poisons the log.  Transactions
    pass their commit counter as [txn_id], auto-committed DDL passes 0. *)

val sync : t -> unit
(** Force one flush + one fsync of everything appended so far.  Raises
    [Wal_error] on a closed log or fsync failure. *)

val with_batch : t -> (unit -> 'a) -> 'a
(** Defer every flush/fsync inside the scope; at scope end (even on
    exception) perform one mode-appropriate sync covering all deferred
    commits.  The server's batch executor wraps each batch in this
    so a batch costs one flush (+ one fsync in the fsync mode) total.
    A failed scope-end sync poisons the log and raises its own exception
    (typically [Db_error (Wal_error _)]); if the body raised, the body's
    exception is re-raised instead.  Scopes do not nest, and a poisoned
    log refuses to open one. *)

val crash : t -> unit
(** Simulate the process dying with the log open: close the fd {i without}
    flushing, so bytes still buffered in the channel never reach the file
    — exactly what SIGKILL does to them.  The handle is unusable
    afterwards; recover by reopening the path.  For fault-injection
    tests. *)

val close : t -> unit
(** Flushes, fsyncs in the fsync mode, and closes the file. *)

(** {1 Recovery} *)

val read_records : string -> record list
(** Tolerates a torn batch tail: undecodable lines strictly after the last
    commit marker are dropped; an undecodable line at-or-before it is real
    corruption and fails loudly. *)

val replay : string -> Catalog.t
(** Rebuild a catalog from the log, applying only complete
    (commit-terminated) batches.  Raises [Wal_error] on a prefix-truncated
    log: its full history only exists on top of a checkpoint. *)

val apply_batches : Catalog.t -> record list -> int * int
(** Apply every complete (commit-terminated) batch; trailing records
    without a commit marker are discarded.  Returns [(batches, records)]
    applied.  A replica applies shipped batches with this. *)

val replay_into : Catalog.t -> string -> after_lsn:int -> int * int
(** Apply to the given catalog only the complete batches with LSN >
    [after_lsn] — the WAL suffix past a checkpoint.  Raises [Wal_error]
    when the log's prefix was truncated beyond [after_lsn].  Returns
    [(batches, records)] applied. *)

val truncate_torn_tail : string -> bool
(** Physically truncate the log to the end of its last complete batch
    (returns [true] if bytes were removed).  Must run before reopening a
    recovered log for append: otherwise the next batch is written directly
    after the torn fragment and stale pre-crash bytes merge into a
    committed batch. *)

val truncate_prefix : t -> upto_lsn:int -> unit
(** Rewrite the live log without the batches at or below [upto_lsn],
    leaving an [Lsn_base] marker followed by the surviving suffix.  Only
    meaningful right after a checkpoint at [upto_lsn]; raises [Wal_error]
    for an LSN outside [base_lsn, last_lsn] or inside a batch scope. *)

val attach : t -> Txn.manager -> unit
(** Wire a transaction manager's commit hook to the log. *)
