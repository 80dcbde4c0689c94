(** A writer-preferring read-write lock for the server's engine sections.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Writer preference: once a writer is waiting, new readers queue
    behind it, so a steady read load cannot starve mutations (the
    coordination path must not wait forever behind SELECT traffic).
    Readers can be starved by a continuous stream of writers — acceptable
    here because engine writes are short and bursty.

    Built from one mutex and two condition variables; [readers] counts the
    active readers, [writer] marks an active writer, [waiting_writers]
    implements the preference. *)

type t = {
  mu : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable readers : int;
  mutable writer : bool;
  mutable waiting_writers : int;
}

let create () =
  {
    mu = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    readers = 0;
    writer = false;
    waiting_writers = 0;
  }

(* Both acquire paths report whether they had to queue, so the server can
   count lock contention without timing anything. *)

let read_lock l =
  Mutex.lock l.mu;
  let contended = l.writer || l.waiting_writers > 0 in
  while l.writer || l.waiting_writers > 0 do
    Condition.wait l.can_read l.mu
  done;
  l.readers <- l.readers + 1;
  Mutex.unlock l.mu;
  contended

let read_unlock l =
  Mutex.lock l.mu;
  l.readers <- l.readers - 1;
  if l.readers = 0 then Condition.signal l.can_write;
  Mutex.unlock l.mu

let write_lock l =
  Mutex.lock l.mu;
  let contended = l.writer || l.readers > 0 in
  l.waiting_writers <- l.waiting_writers + 1;
  while l.writer || l.readers > 0 do
    Condition.wait l.can_write l.mu
  done;
  l.waiting_writers <- l.waiting_writers - 1;
  l.writer <- true;
  Mutex.unlock l.mu;
  contended

let write_unlock l =
  Mutex.lock l.mu;
  l.writer <- false;
  if l.waiting_writers > 0 then Condition.signal l.can_write
  else Condition.broadcast l.can_read;
  Mutex.unlock l.mu

let with_read ?on_wait l f =
  let contended = read_lock l in
  if contended then Option.iter (fun g -> g ()) on_wait;
  Fun.protect ~finally:(fun () -> read_unlock l) f

let with_write ?on_wait l f =
  let contended = write_lock l in
  if contended then Option.iter (fun g -> g ()) on_wait;
  Fun.protect ~finally:(fun () -> write_unlock l) f
