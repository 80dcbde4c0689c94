(** Readiness multiplexing for the event-loop server core: a [poll(2)] C
    stub, with no fd-count ceiling. *)

(** Interest / readiness bits, or-able. *)

val readable : int
val writable : int
val error : int

val wait :
  fds:Unix.file_descr array ->
  events:int array ->
  revents:int array ->
  nfds:int ->
  timeout_ms:int ->
  int
(** [wait ~fds ~events ~revents ~nfds ~timeout_ms] fills
    [revents.(0..nfds-1)] with readiness bits and returns the number of
    ready fds (0 on timeout or EINTR).  [timeout_ms < 0] blocks
    indefinitely.  Closed-out fds surface as {!error} rather than an
    exception. *)
