(** Bounded retry with exponential backoff and jitter.

    Shared by the client's connect/replica paths ({!retry}) and the
    replica's upstream link, whose event loop times each redial from
    {!jittered} instead of sleeping.  Delays grow as [base_delay * 2^(attempt-1)] capped at
    [max_delay], with ±[jitter] multiplicative noise so reconnecting peers
    don't stampede in lockstep. *)

type policy = {
  attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the second try *)
  max_delay : float;  (** cap on the uncapped exponential *)
  jitter : float;  (** ±fraction of the delay, e.g. 0.5 for ±50% *)
}

val default : policy
(** 5 attempts, 50 ms base, 1 s cap, ±50% jitter. *)

val no_retry : policy
(** Single attempt — [retry] behaves like a plain call. *)

val delay_for : policy -> attempt:int -> float
(** Deterministic delay after [attempt] failures (1-based), before
    jitter. *)

val jittered : policy -> attempt:int -> float
(** [delay_for] with jitter applied; never negative. *)

val retry :
  ?policy:policy ->
  ?retry_on:(exn -> bool) ->
  ?on_retry:(attempt:int -> delay:float -> exn -> unit) ->
  (unit -> 'a) ->
  'a
(** Run the thunk until it returns, [retry_on] rejects the exception
    (default: retry everything), or [policy.attempts] tries are exhausted —
    then the last exception is re-raised.  [on_retry] fires before each
    sleep. *)
