(* Deterministic failpoint injection; see fault.mli for the contract.

   Hot path: [point]/[cut]/[skip] read one global bool.  Everything else
   (arming, hit accounting, the RNG) lives behind a mutex so concurrent
   server threads can hit the same point safely.  The action itself runs
   OUTSIDE the mutex — a [Delay] must stall only its own thread. *)

type action =
  | Error of string
  | Partial of int
  | Delay of float
  | Drop
  | Kill

exception Injected of string * string

let () =
  Printexc.register_printer (function
    | Injected (point, detail) ->
      Some (Printf.sprintf "Fault.Injected (%s: %s)" point detail)
    | _ -> None)

type state = {
  action : action;
  from_hit : int;
  one_shot : bool;
  probability : float;
  mutable hits : int;
  mutable fired : int;
  mutable spent : bool;  (* one-shot already fired: count hits, never fire *)
}

let enabled_flag = ref false
let mu = Mutex.create ()
let points : (string, state) Hashtbl.t = Hashtbl.create 16
let rng = ref (Random.State.make [| 0 |])

let trace =
  match Sys.getenv_opt "YOUTOPIA_FAULT_TRACE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let enabled () = !enabled_flag

let with_mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ---------------- spec grammar ---------------- *)

let action_to_string = function
  | Error "" -> "error"
  | Error m -> Printf.sprintf "error(%s)" m
  | Partial n -> Printf.sprintf "partial(%d)" n
  | Delay s -> Printf.sprintf "delay(%g)" s
  | Drop -> "drop"
  | Kill -> "kill"

let spec_to_string st =
  Printf.sprintf "%s%s%s%s"
    (if st.probability < 1. then
       Printf.sprintf "%d%%" (int_of_float (st.probability *. 100. +. 0.5))
     else "")
    (if st.from_hit > 1 then Printf.sprintf "%d->" st.from_hit else "")
    (action_to_string st.action)
    (if st.one_shot then "!" else "")

let parse_action s =
  let body name =
    (* "name(body)" -> Some body; "name" -> Some "" *)
    let n = String.length name in
    if s = name then Some ""
    else if
      String.length s > n + 1
      && String.sub s 0 (n + 1) = name ^ "("
      && s.[String.length s - 1] = ')'
    then Some (String.sub s (n + 1) (String.length s - n - 2))
    else None
  in
  match body "error" with
  | Some m -> Ok (Error m)
  | None -> (
    match body "partial" with
    | Some b -> (
      match int_of_string_opt b with
      | Some n when n >= 0 -> Ok (Partial n)
      | _ -> Result.Error ("bad partial byte count: " ^ s))
    | None -> (
      match body "delay" with
      | Some b -> (
        match float_of_string_opt b with
        | Some d when d >= 0. -> Ok (Delay d)
        | _ -> Result.Error ("bad delay seconds: " ^ s))
      | None -> (
        match s with
        | "drop" -> Ok Drop
        | "kill" -> Ok Kill
        | _ -> Result.Error ("unknown action: " ^ s))))

let parse_spec s =
  let s = String.trim s in
  if s = "" then Result.Error "empty spec"
  else begin
    let one_shot = s.[String.length s - 1] = '!' in
    let s = if one_shot then String.sub s 0 (String.length s - 1) else s in
    let probability, s =
      match String.index_opt s '%' with
      | Some i when i < String.length s - 1 -> (
        match int_of_string_opt (String.sub s 0 i) with
        | Some p when p >= 0 && p <= 100 ->
          ( float_of_int p /. 100.,
            String.sub s (i + 1) (String.length s - i - 1) )
        | _ -> (1., s))
      | _ -> (1., s)
    in
    let from_hit, s =
      (* "N->rest" *)
      let rec find i =
        if i + 1 < String.length s then
          if s.[i] = '-' && s.[i + 1] = '>' then Some i else find (i + 1)
        else None
      in
      match find 0 with
      | Some i -> (
        match int_of_string_opt (String.sub s 0 i) with
        | Some n when n >= 1 ->
          (n, String.sub s (i + 2) (String.length s - i - 2))
        | _ -> (1, s))
      | None -> (1, s)
    in
    match parse_action s with
    | Ok action -> Ok (action, from_hit, one_shot, probability)
    | Result.Error _ as e -> e
  end

(* ---------------- arming ---------------- *)

let arm ?(from_hit = 1) ?(one_shot = false) ?(probability = 1.) name action =
  with_mu (fun () ->
      Hashtbl.replace points name
        {
          action;
          from_hit = max 1 from_hit;
          one_shot;
          probability;
          hits = 0;
          fired = 0;
          spent = false;
        };
      enabled_flag := true)

let arm_spec name spec =
  match parse_spec spec with
  | Ok (action, from_hit, one_shot, probability) ->
    arm ~from_hit ~one_shot ~probability name action;
    Ok ()
  | Result.Error _ as e -> e

let parse_pairs s =
  let entries =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  let rec go armed = function
    | [] -> Ok (String.concat "," (List.rev armed))
    | entry :: rest -> (
      match String.index_opt entry '=' with
      | None -> Result.Error ("missing '=' in failpoint entry: " ^ entry)
      | Some i -> (
        let name = String.trim (String.sub entry 0 i) in
        let spec = String.sub entry (i + 1) (String.length entry - i - 1) in
        if name = "" then Result.Error ("missing point name in: " ^ entry)
        else
          match arm_spec name spec with
          | Ok () -> go (name :: armed) rest
          | Result.Error e ->
            Result.Error (Printf.sprintf "%s: %s" name e)))
  in
  go [] entries

let disarm name =
  with_mu (fun () ->
      Hashtbl.remove points name;
      if Hashtbl.length points = 0 then enabled_flag := false)

let disarm_all () =
  with_mu (fun () ->
      Hashtbl.reset points;
      enabled_flag := false)

let set_seed seed = with_mu (fun () -> rng := Random.State.make [| seed |])

let hits name =
  with_mu (fun () ->
      match Hashtbl.find_opt points name with Some st -> st.hits | None -> 0)

let fired name =
  with_mu (fun () ->
      match Hashtbl.find_opt points name with Some st -> st.fired | None -> 0)

let list () =
  with_mu (fun () ->
      Hashtbl.fold
        (fun name st acc ->
          Printf.sprintf "%s=%s hits=%d fired=%d" name (spec_to_string st)
            st.hits st.fired
          :: acc)
        points [])
  |> List.sort compare

(* ---------------- firing ---------------- *)

(* Decide under the mutex; return the action to perform outside it
   ([None] = pass). *)
let decide name =
  with_mu (fun () ->
      match Hashtbl.find_opt points name with
      | None -> None
      | Some st ->
        st.hits <- st.hits + 1;
        if st.spent || st.hits < st.from_hit then None
        else if
          st.probability < 1.
          && Random.State.float !rng 1. >= st.probability
        then None
        else begin
          st.fired <- st.fired + 1;
          if st.one_shot then st.spent <- true;
          Some st.action
        end)

let die name =
  (* flush nothing: this is a crash, the whole torture point is that
     buffered-but-unsynced state evaporates *)
  if trace then
    Printf.eprintf "[fault] %s: killing pid %d\n%!" name (Unix.getpid ());
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* unreachable (SIGKILL is not handleable), but keep the type total *)
  assert false

let traced name action =
  if trace then
    Printf.eprintf "[fault] %s fired: %s\n%!" name (action_to_string action)

let point name =
  if !enabled_flag then
    match decide name with
    | None -> ()
    | Some action -> (
      traced name action;
      match action with
      | Error m -> raise (Injected (name, if m = "" then "injected error" else m))
      | Delay s -> Thread.delay s
      | Kill -> die name
      | Partial _ | Drop ->
        raise (Injected (name, "partial/drop armed at a unit point")))

let cut name ~len =
  if not !enabled_flag then None
  else
    match decide name with
    | None -> None
    | Some action -> (
      traced name action;
      match action with
      | Partial n -> Some (min (max n 0) len)
      | Drop -> Some 0
      | Error m -> raise (Injected (name, if m = "" then "injected error" else m))
      | Delay s ->
        Thread.delay s;
        None
      | Kill -> die name)

let skip name =
  if not !enabled_flag then false
  else
    match decide name with
    | None -> false
    | Some action -> (
      traced name action;
      match action with
      | Drop | Partial _ -> true
      | Error m -> raise (Injected (name, if m = "" then "injected error" else m))
      | Delay s ->
        Thread.delay s;
        false
      | Kill -> die name)

let passes name =
  match point name with () -> true | exception Injected _ -> false

(* ---------------- environment ---------------- *)

let init_from_env () =
  (match Sys.getenv_opt "YOUTOPIA_FAULT_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some seed -> set_seed seed
    | None -> Printf.eprintf "[fault] bad YOUTOPIA_FAULT_SEED: %s\n%!" s)
  | None -> ());
  match Sys.getenv_opt "YOUTOPIA_FAILPOINTS" with
  | None | Some "" -> ()
  | Some s -> (
    match parse_pairs s with
    | Ok armed ->
      if trace then Printf.eprintf "[fault] armed from env: %s\n%!" armed
    | Result.Error e ->
      Printf.eprintf "[fault] YOUTOPIA_FAILPOINTS: %s\n%!" e)

(* Arm from the environment as soon as any instrumented library is
   linked: the torture harness crashes the stock server binary purely by
   exporting YOUTOPIA_FAILPOINTS. *)
let () = init_from_env ()
