(** The Youtopia system facade — the whole of Figure 2 in one handle.

    Ties together the regular database (catalog + transactions + optional
    WAL), the query compiler, the execution engine, and the coordination
    component.  SQL text arrives through a {!Session.t}; plain statements go
    to the execution engine, entangled statements to the coordinator, and
    coordination answers are delivered asynchronously to the owning
    session's mailbox. *)

open Relational

type t = {
  db : Database.t;
  coordinator : Core.Coordinator.t;
  mutable sessions : Session.t list;
  mu : Mutex.t;
}

(* Build the coordinator over [db] and route every notification to the
   mailbox of the owner's session(s). *)
let make ~config db =
  let coordinator = Core.Coordinator.create ~config db in
  let t = { db; coordinator; sessions = []; mu = Mutex.create () } in
  Core.Coordinator.subscribe coordinator (fun n ->
      List.iter
        (fun session ->
          if Session.user session = n.Core.Events.owner then
            Session.deliver session n)
        t.sessions);
  t

let create ?(config = Core.Coordinator.default_config) ?wal_path ?durability () =
  let db = Database.create () in
  (match wal_path with
  | None -> ()
  | Some path -> Database.attach_wal ?durability db path);
  make ~config db

(** [recover ?config ~wal_path ~answer_relations ()] rebuilds a system from
    a write-ahead log: the regular tables AND the answer relations are
    replayed (answer relations are ordinary logged tables), then the named
    answer relations are re-registered with the coordinator.  Pending
    entangled queries are *not* durable — the demo semantics is that
    unanswered requests are re-submitted by their owners after a crash. *)
let recover ?(config = Core.Coordinator.default_config) ?durability ~wal_path
    ~answer_relations () =
  let t = make ~config (Database.recover ?durability wal_path) in
  List.iter
    (fun rel -> Core.Coordinator.adopt_answer_relation t.coordinator rel)
    answer_relations;
  t

let database t = t.db
let catalog t = t.db.Database.catalog
let coordinator t = t.coordinator

(** [checkpoint t] — snapshot the database at the WAL's current LSN (see
    {!Database.checkpoint}); the caller must exclude concurrent writers. *)
let checkpoint ?truncate_wal ?keep t =
  Database.checkpoint ?truncate_wal ?keep t.db

(** [session t user] — create and register a session for [user]. *)
let session t user =
  Mutex.lock t.mu;
  let s = Session.create t.db user in
  t.sessions <- s :: t.sessions;
  Mutex.unlock t.mu;
  s

(** [close_session t s] — unregister a session so notifications stop being
    routed to it (network connections close; in-process sessions usually
    live as long as the system). *)
let close_session t s =
  Mutex.lock t.mu;
  t.sessions <- List.filter (fun s' -> s' != s) t.sessions;
  Mutex.unlock t.mu

let declare_answer_relation t schema =
  Core.Coordinator.declare_answer_relation t.coordinator schema

(** Result of submitting one statement. *)
type response =
  | Sql of Sql.Run.result  (** plain SQL executed by the execution engine *)
  | Coordination of Core.Coordinator.outcome  (** entangled query *)
  | Pending_listing of string  (** SHOW PENDING *)

let response_to_string = function
  | Sql r -> Sql.Run.result_to_string r
  | Coordination (Core.Coordinator.Rejected m) -> "rejected: " ^ m
  | Coordination (Core.Coordinator.Answered n) ->
    Core.Events.notification_to_string n
  | Coordination (Core.Coordinator.Registered id) ->
    Printf.sprintf "query registered as Q%d; waiting for coordination partners" id
  | Coordination (Core.Coordinator.Multi outcomes) ->
    Printf.sprintf "%d instances submitted" (List.length outcomes)
  | Pending_listing s -> s

(** [exec t session stmt] — route one parsed statement. *)
let exec t (session : Session.t) (stmt : Sql.Ast.statement) : response =
  match stmt with
  | Sql.Ast.Select s when s.Sql.Ast.into_answer <> [] ->
    let q =
      Core.Translate.of_select (catalog t)
        ~owner:(Session.user session)
        ~label:(Sql.Pretty.select_to_string s)
        s
    in
    let outcome = Core.Coordinator.submit t.coordinator q in
    Coordination outcome
  | Sql.Ast.Show_pending ->
    Pending_listing
      (Fmt.str "%a" Core.Pending.pp (Core.Coordinator.pending t.coordinator))
  | stmt -> Sql (Sql.Run.exec session.Session.sql stmt)

(** [exec_sql t session text] — parse and route one statement of SQL text. *)
let exec_sql t session text = exec t session (Sql.Parser.parse_one text)

(** [exec_script t session text] — run a [;]-separated script, returning
    every response in order. *)
let exec_script t session text =
  List.map (exec t session) (Sql.Parser.parse_script text)

(** [submit_equery t session q] — submit a pre-built entangled query (the
    middle-tier path used by the travel application). *)
let submit_equery t (session : Session.t) (q : Core.Equery.t) =
  Core.Coordinator.submit t.coordinator
    { q with Core.Equery.owner = Session.user session }

(** [poke t] — retry pending coordinations after database updates. *)
let poke t = Core.Coordinator.poke t.coordinator

(** [poke_batch t ~statements] — one poke amortising a whole write batch
    (see {!Core.Coordinator.poke_batch}). *)
let poke_batch t ~statements =
  Core.Coordinator.poke_batch ~statements t.coordinator
