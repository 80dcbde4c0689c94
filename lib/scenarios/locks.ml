(** Scenario: a lock-lease service built from entangled queries.

    Distributed lock managers are usually bespoke consensus machinery; here
    the whole service is a Youtopia workload — every state transition is a
    joint-atomic fulfilment over two regular tables and two answer
    relations, and every operation is plain wire SQL (the [THEN] clause
    carries the fulfilment effects), so any client of the network server can
    run a correct lock service with no server-side code.

    Schema:
    - [Locks(name, free)] — the registry; [free] is 1 iff no live lease.
    - [Leases(name, owner, token, expires, active)] — one row per grant,
      kept (deactivated, never deleted) as an auditable history.
    - [Reclaims(name, token)] — the sweeper's receipt trail; exactly one
      row per reclaimed lease.
    - answer relation [LockRes(owner, name, token)] — grant/renewal
      receipts delivered to the owner's mailbox.
    - answer relation [SweepRes(name, token)] — reclamation receipts.

    Operations:
    - {b acquire}: an entangled query whose database atom requires
      [free >= 1]; fulfilment flips [free] to 0 and inserts the lease in
      the same transaction.  If the lock is held the query {e parks} — a
      waiter queue for free, woken by the release poke; racing acquirers
      are serialised by the coordinator, so conflict-checking is the
      matcher itself.
    - {b release}: a plain transaction (deactivate lease, free the lock)
      followed by a poke that wakes parked acquirers.
    - {b renew}: an entangled query conditioned on the caller's own live
      unexpired lease; fulfilment extends [expires] atomically with the
      receipt.  A dead lease can't match, so a stale holder learns it lost
      the lock by its renewal parking (the app cancels it and reports
      failure).
    - {b sweep}: the crash sweeper.  [CHOOSE k] submits k instances over
      the expired-lease atom; each instance re-evaluates after the
      previous one's fulfilment, so each reclaims a {e distinct} lease —
      deactivate, free the lock, write the [Reclaims] receipt, all
      joint-atomically.  Instances that find nothing park and are
      cancelled immediately.

    Time is a logical tick counter owned by the caller ([~now]); the
    service never reads a clock, so benches, tests, and the torture
    harness replay deterministically.

    Invariants audited by {!audit} (torture checks them across crashes):
    - {b I-L1} per lock: at most one active lease, and [free = 0] iff an
      active lease exists.
    - {b I-L2} reclaims are exactly-once: no duplicate [(name, token)]
      receipt, and every receipt points at a deactivated lease. *)

open Relational

let locks_schema =
  Schema.make ~primary_key:[ 0 ] "Locks"
    [ Schema.column "name" Ctype.TText; Schema.column "free" Ctype.TInt ]

let leases_schema =
  Schema.make ~primary_key:[ 2 ] "Leases"
    [
      Schema.column "name" Ctype.TText;
      Schema.column "owner" Ctype.TText;
      Schema.column "token" Ctype.TInt;
      Schema.column "expires" Ctype.TInt;
      Schema.column "active" Ctype.TInt;
    ]

let reclaims_schema =
  Schema.make "Reclaims"
    [ Schema.column "name" Ctype.TText; Schema.column "token" Ctype.TInt ]

let lock_res_schema =
  Schema.make "LockRes"
    [
      Schema.column "owner" Ctype.TText;
      Schema.column "name" Ctype.TText;
      Schema.column "token" Ctype.TInt;
    ]

let sweep_res_schema =
  Schema.make "SweepRes"
    [ Schema.column "name" Ctype.TText; Schema.column "token" Ctype.TInt ]

let answer_relation_names = [ "LockRes"; "SweepRes" ]

(* [leases_by_active] lets the sweeper's [active = 1] subquery probe the
   live leases instead of scanning the append-only history. *)
let create_indexes db =
  let leases = Database.find_table db "Leases" in
  ignore (Table.create_index leases "leases_by_name" [| 0 |]);
  ignore (Table.create_index leases "leases_by_active" [| 4 |])

let setup (sys : Youtopia.System.t) =
  let db = Youtopia.System.database sys in
  ignore (Database.create_table db locks_schema);
  ignore (Database.create_table db leases_schema);
  ignore (Database.create_table db reclaims_schema);
  create_indexes db;
  Youtopia.System.declare_answer_relation sys lock_res_schema;
  Youtopia.System.declare_answer_relation sys sweep_res_schema

let lock_name i = Printf.sprintf "lock%d" i

(** [populate sys ~n_locks] registers [n_locks] free locks in one logged
    transaction (recoverable from the WAL, like {!Travel.Datagen}). *)
let populate (sys : Youtopia.System.t) ~n_locks =
  let db = Youtopia.System.database sys in
  let locks = Database.find_table db "Locks" in
  Database.with_txn db (fun txn ->
      for i = 0 to n_locks - 1 do
        ignore
          (Txn.insert txn locks [| Value.Str (lock_name i); Value.Int 1 |])
      done)

let make_system ?config ?wal_path ?durability ~n_locks () =
  let sys = Youtopia.System.create ?config ?wal_path ?durability () in
  setup sys;
  populate sys ~n_locks;
  sys

(** Rebuild from the WAL; answer relations are re-adopted and the
    (unlogged) secondary indexes re-created. *)
let recover_system ?config ?durability ~wal_path () =
  let sys =
    Youtopia.System.recover ?config ?durability ~wal_path
      ~answer_relations:answer_relation_names ()
  in
  create_indexes (Youtopia.System.database sys);
  sys

(* ------------------------------------------------------------------ *)
(* The middle tier: sessions, token counter, logical clock helpers.     *)

type t = {
  sys : Youtopia.System.t;
  mutable sessions : (string * Youtopia.Session.t) list;
  mutable next_token : int;
  mu : Mutex.t;
}

let create ?config ?wal_path ?durability ~n_locks () =
  let sys = make_system ?config ?wal_path ?durability ~n_locks () in
  { sys; sessions = []; next_token = 1; mu = Mutex.create () }

(** Re-attach a middle tier to a recovered system (post-crash).  The token
    counter restarts above every token in the replayed lease history, so
    receipts stay unique across crashes. *)
let attach (sys : Youtopia.System.t) =
  let db = Youtopia.System.database sys in
  let leases = Database.find_table db "Leases" in
  let max_token =
    Table.fold (fun acc _ row -> max acc (Value.as_int row.(2))) 0 leases
  in
  { sys; sessions = []; next_token = max_token + 1; mu = Mutex.create () }

let system t = t.sys

let session t user =
  Mutex.lock t.mu;
  let s =
    match List.assoc_opt user t.sessions with
    | Some s -> s
    | None ->
      let s = Youtopia.System.session t.sys user in
      t.sessions <- (user, s) :: t.sessions;
      s
  in
  Mutex.unlock t.mu;
  s

let inbox t user = Youtopia.Session.drain (session t user)

let fresh_token t =
  Mutex.lock t.mu;
  let tok = t.next_token in
  t.next_token <- tok + 1;
  Mutex.unlock t.mu;
  tok

let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

(* ------------------------------------------------------------------ *)
(* Operation SQL.  These builders are the wire protocol of the service:
   the TUTORIAL walks two netcat-level clients through exactly these
   strings. *)

(** The acquire query: grant receipt into [LockRes], lock flipped busy and
    lease written by the fulfilment effects. *)
let acquire_sql ~owner ~name ~token ~expires =
  Printf.sprintf
    "SELECT %s, lname, %d INTO ANSWER LockRes WHERE lname IN (SELECT name \
     FROM Locks WHERE name = %s AND free >= 1) THEN UPDATE Locks SET free = \
     0 WHERE name = lname THEN INSERT INTO Leases VALUES (lname, %s, %d, \
     %d, 1) CHOOSE 1"
    (quote owner) token (quote name) (quote owner) token expires

(** The renew query: matches only the caller's own live, unexpired lease;
    the effect pushes [expires] forward.  [token] is the renewal receipt's
    fresh token (the lease keeps its original token — [tok] in the query —
    which stays the reclaim/release key). *)
let renew_sql ~owner ~name ~token ~now ~expires =
  Printf.sprintf
    "SELECT %s, lname, %d INTO ANSWER LockRes WHERE (lname, tok) IN (SELECT \
     name, token FROM Leases WHERE name = %s AND owner = %s AND active = 1 \
     AND expires >= %d) THEN UPDATE Leases SET expires = %d WHERE token = \
     tok CHOOSE 1"
    (quote owner) token (quote name) (quote owner) now expires

(** The sweeper query: each of the [limit] instances reclaims one distinct
    expired lease — deactivate it, free its lock, write the exactly-once
    [Reclaims] receipt. *)
let sweep_sql ~now ~limit =
  Printf.sprintf
    "SELECT lname, tok INTO ANSWER SweepRes WHERE (lname, tok) IN (SELECT \
     name, token FROM Leases WHERE active = 1 AND expires < %d) THEN UPDATE \
     Leases SET active = 0 WHERE token = tok THEN UPDATE Locks SET free = 1 \
     WHERE name = lname THEN INSERT INTO Reclaims VALUES (lname, tok) \
     CHOOSE %d"
    now limit

(* ------------------------------------------------------------------ *)
(* Operations. *)

type grant = { g_name : string; g_token : int; g_expires : int }

type acquire_result =
  | Granted of grant  (** fulfilled immediately *)
  | Waiting of int  (** parked; woken when the holder releases *)
  | Refused of string  (** failed the safety check *)

let submit_sql t ~owner sql =
  let q =
    Core.Translate.of_sql (Youtopia.System.catalog t.sys) ~owner sql
  in
  Youtopia.System.submit_equery t.sys (session t owner) q

(** [acquire t ~owner ~name ~now ~ttl] — request the lock.  Immediate grant
    if free; otherwise the request parks as a waiter and the grant arrives
    in [owner]'s mailbox when a release (or sweep) frees the lock. *)
let acquire t ~owner ~name ~now ~ttl =
  let token = fresh_token t in
  let expires = now + ttl in
  match submit_sql t ~owner (acquire_sql ~owner ~name ~token ~expires) with
  | Core.Coordinator.Answered _ ->
    Granted { g_name = name; g_token = token; g_expires = expires }
  | Core.Coordinator.Registered id -> Waiting id
  | Core.Coordinator.Rejected reason -> Refused reason
  | Core.Coordinator.Multi _ -> Errors.internalf "acquire is CHOOSE 1"

(** [release t ~owner ~name] — deactivate the caller's active lease and
    free the lock in one transaction, then poke to wake parked waiters.
    [false] if the caller holds no active lease on [name]. *)
let release t ~owner ~name =
  let db = Youtopia.System.database t.sys in
  let locks = Database.find_table db "Locks" in
  let leases = Database.find_table db "Leases" in
  let released =
    Database.with_txn db (fun txn ->
        let mine =
          Table.fold
            (fun acc row_id row ->
              if
                acc = None
                && Value.as_string row.(0) = name
                && Value.as_string row.(1) = owner
                && Value.as_int row.(4) = 1
              then Some (row_id, row)
              else acc)
            None leases
        in
        match mine with
        | None -> false
        | Some (row_id, row) ->
          let dead = Array.copy row in
          dead.(4) <- Value.Int 0;
          ignore (Txn.update txn leases row_id dead);
          (match Table.lookup_pk locks [| Value.Str name |] with
          | None -> Errors.internalf "lease without a lock row: %s" name
          | Some lock_id ->
            let lock = Table.get_exn locks lock_id in
            let freed = Array.copy lock in
            freed.(1) <- Value.Int 1;
            ignore (Txn.update txn locks lock_id freed));
          true)
  in
  if released then ignore (Youtopia.System.poke t.sys);
  released

(** [renew t ~owner ~name ~now ~ttl] — extend the caller's live lease.
    [None] means the lease is gone (expired and swept, or never held): the
    parked renewal is withdrawn so it can't spuriously match later. *)
let renew t ~owner ~name ~now ~ttl =
  let token = fresh_token t in
  let expires = now + ttl in
  match
    submit_sql t ~owner (renew_sql ~owner ~name ~token ~now ~expires)
  with
  | Core.Coordinator.Answered _ ->
    Some { g_name = name; g_token = token; g_expires = expires }
  | Core.Coordinator.Registered id ->
    ignore (Core.Coordinator.cancel (Youtopia.System.coordinator t.sys) id);
    None
  | Core.Coordinator.Rejected reason -> Errors.internalf "renew rejected: %s" reason
  | Core.Coordinator.Multi _ -> Errors.internalf "renew is CHOOSE 1"

(** [sweep t ~now ?limit ()] — reclaim up to [limit] expired leases;
    returns the number reclaimed.  Reclamation cascades: freeing a lock
    can immediately grant it to a parked waiter. *)
let sweep t ~now ?(limit = 32) () =
  let coord = Youtopia.System.coordinator t.sys in
  let outcome = submit_sql t ~owner:"sweeper" (sweep_sql ~now ~limit) in
  let instances =
    match outcome with Core.Coordinator.Multi l -> l | o -> [ o ]
  in
  let reclaimed =
    List.fold_left
      (fun n -> function
        | Core.Coordinator.Answered _ -> n + 1
        | Core.Coordinator.Registered id ->
          (* nothing left to reclaim this tick; don't leave a trap armed *)
          ignore (Core.Coordinator.cancel coord id);
          n
        | Core.Coordinator.Rejected reason ->
          Errors.internalf "sweep rejected: %s" reason
        | Core.Coordinator.Multi _ -> Errors.internalf "nested Multi")
      0 instances
  in
  (* freeing a lock is a database-side effect, invisible to the
     answer-driven cascade — poke so parked acquirers see the free lock *)
  if reclaimed > 0 then ignore (Youtopia.System.poke t.sys);
  reclaimed

(** [holder t ~name] — the conflict check: [(owner, token, expires)] of the
    active lease, if any. *)
let holder t ~name =
  let db = Youtopia.System.database t.sys in
  let leases = Database.find_table db "Leases" in
  Table.fold
    (fun acc _ row ->
      if acc = None && Value.as_string row.(0) = name && Value.as_int row.(4) = 1
      then
        Some
          (Value.as_string row.(1), Value.as_int row.(2), Value.as_int row.(3))
      else acc)
    None leases

(* ------------------------------------------------------------------ *)
(* Invariant audit (shared by the unit tests and the torture harness). *)

(** [audit sys] — check I-L1 and I-L2 over the current database; returns
    the list of violations (empty = healthy).  Works on any lock system,
    including one freshly recovered from a WAL. *)
let audit (sys : Youtopia.System.t) =
  let db = Youtopia.System.database sys in
  let locks = Database.find_table db "Locks" in
  let leases = Database.find_table db "Leases" in
  let reclaims = Database.find_table db "Reclaims" in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* I-L1: at most one active lease per lock; free = 0 iff one exists. *)
  let active = Hashtbl.create 64 in
  let by_token = Hashtbl.create 64 in
  Table.iter
    (fun _ row ->
      let name = Value.as_string row.(0) in
      let token = Value.as_int row.(2) in
      (match Hashtbl.find_opt by_token token with
      | Some other ->
        err "duplicate lease token %d (locks %s and %s)" token other name
      | None -> Hashtbl.replace by_token token name);
      if Value.as_int row.(4) = 1 then
        Hashtbl.replace active name
          (1 + Option.value ~default:0 (Hashtbl.find_opt active name)))
    leases;
  Hashtbl.iter
    (fun name n ->
      if n > 1 then err "I-L1: lock %s has %d active leases" name n)
    active;
  Table.iter
    (fun _ row ->
      let name = Value.as_string row.(0) in
      let free = Value.as_int row.(1) in
      let held = Option.value ~default:0 (Hashtbl.find_opt active name) > 0 in
      if free = 1 && held then err "I-L1: lock %s free but has an active lease" name;
      if free = 0 && not held then err "I-L1: lock %s busy but has no active lease" name;
      if free <> 0 && free <> 1 then err "I-L1: lock %s has free = %d" name free)
    locks;
  (* I-L2: reclaims are exactly-once and point at deactivated leases. *)
  let seen = Hashtbl.create 64 in
  let lease_active = Hashtbl.create 64 in
  Table.iter
    (fun _ row ->
      Hashtbl.replace lease_active (Value.as_int row.(2)) (Value.as_int row.(4)))
    leases;
  Table.iter
    (fun _ row ->
      let name = Value.as_string row.(0) in
      let token = Value.as_int row.(1) in
      if Hashtbl.mem seen (name, token) then
        err "I-L2: lease (%s, %d) reclaimed twice" name token
      else Hashtbl.replace seen (name, token) ();
      match Hashtbl.find_opt lease_active token with
      | None -> err "I-L2: reclaim of unknown lease (%s, %d)" name token
      | Some 0 -> ()
      | Some _ -> err "I-L2: reclaimed lease (%s, %d) still active" name token)
    reclaims;
  List.rev !errors
