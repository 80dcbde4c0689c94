(** Bounded retry with exponential backoff and jitter.

    Shared by the client's connect/replica paths ({!retry}, which sleeps)
    and the replica's upstream link (which reads {!jittered} and lets its
    event loop time the redial): anything that dials a socket that may
    not be up yet retries through one policy instead of hand-rolled sleep
    loops.  Delays grow as
    [base_delay * 2^(attempt-1)] capped at [max_delay], then get a
    multiplicative jitter of up to ±[jitter] so a fleet of reconnecting
    peers doesn't stampede in lockstep. *)

type policy = {
  attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the second try *)
  max_delay : float;  (** cap on the uncapped exponential *)
  jitter : float;  (** ±fraction of the delay, e.g. 0.5 for ±50% *)
}

let default =
  { attempts = 5; base_delay = 0.05; max_delay = 1.0; jitter = 0.5 }

let no_retry = { default with attempts = 1 }

(** Deterministic part of the delay after [attempt] failures (1-based). *)
let delay_for p ~attempt =
  let d = p.base_delay *. (2. ** float_of_int (attempt - 1)) in
  Float.min p.max_delay d

(** [delay_for] with jitter applied; never negative. *)
let jittered p ~attempt =
  let d = delay_for p ~attempt in
  let factor = 1. +. (p.jitter *. (Random.float 2. -. 1.)) in
  Float.max 0. (d *. factor)

(** [retry ~policy ~retry_on f] runs [f] until it returns, [retry_on]
    rejects the exception, or the attempt budget is exhausted (the last
    exception is re-raised).  [retry_on] defaults to retrying everything;
    callers should narrow it to transient failures (refused connects,
    closed sockets) so real errors surface immediately.  [on_retry] is
    called before each sleep — for logging and for tests that count
    attempts. *)
let retry ?(policy = default) ?(retry_on = fun _ -> true)
    ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e when attempt < policy.attempts && retry_on e ->
      let delay = jittered policy ~attempt in
      on_retry ~attempt ~delay e;
      if delay > 0. then Thread.delay delay;
      go (attempt + 1)
  in
  go 1
