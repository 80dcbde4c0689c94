(** The Youtopia system facade — the whole of Figure 2 in one handle.

    Ties together the regular database (catalog + transactions + optional
    WAL), the query compiler, the execution engine, and the coordination
    component.  SQL text arrives through a {!Session.t}; plain statements go
    to the execution engine, entangled statements to the coordinator, and
    coordination answers are delivered asynchronously to the owning
    session's mailbox. *)

open Relational

type t

val create :
  ?config:Core.Coordinator.config ->
  ?wal_path:string ->
  ?durability:Wal.durability ->
  unit ->
  t
(** [durability] selects the WAL commit durability mode (default
    {!Wal.Flush_per_commit}); ignored without [wal_path]. *)

val recover :
  ?config:Core.Coordinator.config ->
  ?durability:Wal.durability ->
  wal_path:string ->
  answer_relations:string list ->
  unit ->
  t
(** Rebuild a system from a write-ahead log: regular tables AND answer
    relations are replayed, then the named answer relations are
    re-registered with the coordinator.  Pending entangled queries are not
    durable — unanswered requests are re-submitted by their owners after a
    crash. *)

val database : t -> Database.t
val catalog : t -> Catalog.t
val coordinator : t -> Core.Coordinator.t

val checkpoint : ?truncate_wal:bool -> ?keep:int -> t -> int * string
(** Snapshot the database at the WAL's current LSN; returns
    [(lsn, snapshot_path)].  The caller must exclude concurrent writers
    (the network server runs this under its exclusive engine lock).
    Raises [Wal_error] without an attached WAL.  See
    {!Database.checkpoint}. *)

val session : t -> string -> Session.t
(** Create and register a session for the user; the session's mailbox
    receives that user's coordination answers. *)

val close_session : t -> Session.t -> unit
(** Unregister a session: its mailbox stops receiving coordination
    answers.  Used by the network server when a connection closes. *)

val declare_answer_relation : t -> Schema.t -> unit

(** Result of submitting one statement. *)
type response =
  | Sql of Sql.Run.result  (** plain SQL executed by the execution engine *)
  | Coordination of Core.Coordinator.outcome  (** entangled query *)
  | Pending_listing of string  (** SHOW PENDING *)

val response_to_string : response -> string

val exec : t -> Session.t -> Sql.Ast.statement -> response
val exec_sql : t -> Session.t -> string -> response
val exec_script : t -> Session.t -> string -> response list

val submit_equery : t -> Session.t -> Core.Equery.t -> Core.Coordinator.outcome
(** Submit a pre-built entangled query (the middle-tier path); the session
    user becomes the owner. *)

val poke : t -> Core.Events.notification list
(** Retry pending coordinations after database updates. *)

val poke_batch : t -> statements:int -> Core.Events.notification list
(** One poke amortising a whole write batch of [statements] DML
    statements; see {!Core.Coordinator.poke_batch}. *)
