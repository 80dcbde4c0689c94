(* Readiness multiplexing: a poll(2) stub. *)

let readable = 1
let writable = 2
let error = 4

external poll_wait :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "youtopia_poll_wait"

let wait ~fds ~events ~revents ~nfds ~timeout_ms =
  poll_wait fds events revents nfds timeout_ms
