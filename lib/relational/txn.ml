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
  mutable next_id : int;
  mutable on_commit : (op list -> unit) option;
      (** durability hook; receives the redo log in execution order and
          returns once the commit is as durable as the WAL mode promises *)
  mutable observers : (op list -> unit) list;
      (** commit observers (e.g. the coordinator's dirty-table tracker);
          run after [on_commit], in registration order *)
}

type t = {
  id : int;
  mgr : manager;
  mutable undo : op list;  (** most recent first *)
  mutable state : state;
}

let create_manager () =
  {
    mutex = Mutex.create ();
    next_id = 1;
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
  let id = mgr.next_id in
  mgr.next_id <- id + 1;
  { id; mgr; undo = []; state = Active }

let id t = t.id

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

(** {1 Savepoints}

    A savepoint marks a position in the undo log; [rollback_to] undoes every
    operation performed after the mark while keeping the transaction active
    (partial rollback).  Marks are invalidated by a rollback past them. *)

type savepoint = { sp_txn_id : int; sp_depth : int }

let savepoint t =
  check_active t;
  { sp_txn_id = t.id; sp_depth = List.length t.undo }

let rollback_to t (sp : savepoint) =
  check_active t;
  if sp.sp_txn_id <> t.id then
    Errors.fail (Errors.Txn_error "savepoint belongs to another transaction");
  let depth = List.length t.undo in
  if sp.sp_depth > depth then
    Errors.fail (Errors.Txn_error "savepoint no longer valid");
  let to_undo, keep =
    let rec split i acc rest =
      if i = 0 then List.rev acc, rest
      else
        match rest with
        | [] -> List.rev acc, []
        | op :: tail -> split (i - 1) (op :: acc) tail
    in
    split (depth - sp.sp_depth) [] t.undo
  in
  undo_ops to_undo;
  t.undo <- keep

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
