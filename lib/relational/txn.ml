(** Transactions.

    Concurrency control is coarse: a manager-wide mutex is held from [begin_]
    to [commit]/[rollback], so transactions execute serially — the strongest
    isolation level, which is what Youtopia's joint fulfilment of a match
    group requires (the demo paper: "in addition to isolation through
    transactions").  Atomicity comes from an undo log replayed on rollback;
    durability (optional) from a redo-only WAL written at commit. *)

type op =
  | Ins of Table.t * int * Tuple.t
  | Del of Table.t * Tuple.t
  | Upd of Table.t * int * Tuple.t * Tuple.t  (** row id, old, new *)

type state = Active | Committed | Aborted

type manager = {
  mutex : Mutex.t;
  mutable on_commit : (op list -> unit) option;
      (** durability hook; receives the redo log in execution order and
          returns once the commit is as durable as the WAL mode promises *)
  mutable observers : (op list -> unit) list;
      (** commit observers (e.g. the coordinator's dirty-table tracker);
          run after [on_commit], in registration order *)
}

type t = {
  mgr : manager;
  mutable undo : op list;  (** most recent first *)
  mutable state : state;
}

let create_manager () =
  {
    mutex = Mutex.create ();
    on_commit = None;
    observers = [];
  }

let set_on_commit mgr hook = mgr.on_commit <- hook

(** [add_observer mgr f] — [f] receives every committed transaction's redo
    log (in execution order), after the durability hook.  Observers must not
    start transactions (the manager mutex is still held). *)
let add_observer mgr f = mgr.observers <- mgr.observers @ [ f ]

let begin_ mgr =
  Mutex.lock mgr.mutex;
  { mgr; undo = []; state = Active }

let check_active t =
  match t.state with
  | Active -> ()
  | Committed -> Errors.fail (Errors.Txn_error "transaction already committed")
  | Aborted -> Errors.fail (Errors.Txn_error "transaction already aborted")

(** Transactional mutations: the table change happens immediately; the undo
    log remembers how to reverse it. *)

let insert t table row =
  check_active t;
  let row_id = Table.insert table row in
  let stored = Table.get_exn table row_id in
  t.undo <- Ins (table, row_id, stored) :: t.undo;
  row_id

let delete t table row_id =
  check_active t;
  let old = Table.delete table row_id in
  t.undo <- Del (table, old) :: t.undo;
  old

let update t table row_id row =
  check_active t;
  let old = Table.update table row_id row in
  let stored = Table.get_exn table row_id in
  t.undo <- Upd (table, row_id, old, stored) :: t.undo;
  old

(* reverse [ops], newest first (the undo log's own order) *)
let undo_ops ops =
  List.iter
    (fun op ->
      match op with
      | Ins (table, row_id, _) -> ignore (Table.delete table row_id)
      | Del (table, old) -> ignore (Table.insert table old)
      | Upd (table, row_id, old, _) -> ignore (Table.update table row_id old))
    ops

let commit t =
  check_active t;
  (* before the state flips: an injected raise here leaves the transaction
     Active, so [with_txn]'s exception path rolls it back and releases the
     manager mutex *)
  Fault.point "txn.commit";
  t.state <- Committed;
  (if t.undo <> [] then begin
     let redo = List.rev t.undo in
     (match Option.iter (fun hook -> hook redo) t.mgr.on_commit with
     | () -> ()
     | exception e ->
       (* The durability hook failed before acknowledging anything:
          nothing effective reached the log (a torn tail is truncated on
          recovery), so undo the in-memory changes too — the caller sees
          a clean abort, not a memory/disk split.  The lock must not leak
          either way. *)
       undo_ops t.undo;
       t.state <- Aborted;
       Mutex.unlock t.mgr.mutex;
       raise e);
     match List.iter (fun f -> f redo) t.mgr.observers with
     | () -> ()
     | exception e ->
       (* an observer failed AFTER the commit reached the log: the
          transaction stays committed (recovery would replay it); only
          release the lock and surface the error *)
       Mutex.unlock t.mgr.mutex;
       raise e
   end);
  Mutex.unlock t.mgr.mutex

let rollback t =
  check_active t;
  undo_ops t.undo;
  t.state <- Aborted;
  Mutex.unlock t.mgr.mutex

(** [with_txn mgr f] runs [f txn] and commits; any exception rolls back and
    re-raises. *)
let with_txn mgr f =
  let txn = begin_ mgr in
  let cleanup () =
    (* [commit] can raise with the transaction still Active (e.g. an
       injected pre-commit fault): roll back so the manager mutex is
       released and the changes are undone.  Committed/Aborted states
       already released the lock themselves. *)
    match txn.state with Active -> rollback txn | Committed | Aborted -> ()
  in
  match f txn with
  | result -> (
    match commit txn with
    | () -> result
    | exception e ->
      cleanup ();
      raise e)
  | exception e ->
    cleanup ();
    raise e
