(* Totality of the storage decoders.  The WAL codecs read files a crash
   may have torn, and a replica feeds [Checkpoint.of_lines] bytes from
   the wire, so on any input each decoder returns a value or raises the
   engine's [Db_error] — the checkpoint reader only its [Wal_error] —
   and nothing else escapes. *)

open Relational

let schema =
  Schema.make ~primary_key:[ 0 ] "Acc"
    [
      Schema.column "id" Ctype.TInt;
      Schema.column ~nullable:true "owner" Ctype.TText;
      Schema.column "bal" Ctype.TFloat;
    ]

let tuple = Tuple.of_list [ Value.Int 7; Value.Str "a|b,c;%\n"; Value.Float 1.5 ]

let records =
  [
    Wal.Create_table schema;
    Wal.Drop_table "Acc";
    Wal.Insert ("Acc", tuple);
    Wal.Delete ("Acc", tuple);
    Wal.Update ("Acc", tuple, Tuple.of_list [ Value.Int 8; Value.Null; Value.Float 0. ]);
    Wal.Commit 3;
    Wal.Lsn_base 9;
  ]

let valid_encodings =
  List.map Wal.encode_record records
  @ [ Wal.encode_schema schema; Wal.encode_tuple tuple; Wal.encode_value (Value.Bool true) ]

let mutate s i c = String.mapi (fun j x -> if j = i mod String.length s then c else x) s

let gen_codec_input =
  let open QCheck.Gen in
  let valid = oneofl valid_encodings in
  oneof
    [
      string_size (0 -- 40);
      string_size ~gen:(oneofl [ 'i'; 'n'; 's'; 'f'; 'b'; '|'; ','; ';'; ':'; '%'; '1' ]) (0 -- 20);
      map3 mutate valid nat char;
      map2 (fun s k -> String.sub s 0 (k mod (String.length s + 1))) valid nat;
    ]

let total f s =
  match f s with _ -> true | exception Errors.Db_error _ -> true

let prop_wal_codecs_total =
  QCheck.Test.make ~count:2000 ~name:"WAL decoders: a value or Db_error"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_codec_input)
    (fun s ->
      total Wal.decode_record s
      && total Wal.decode_value s
      && total Wal.decode_tuple s
      && total Wal.decode_schema s)

let only_wal_error lines =
  match Checkpoint.of_lines lines with
  | _ -> true
  | exception Errors.Db_error (Errors.Wal_error _) -> true

(* a valid snapshot: two tables, a few rows, a view *)
let snapshot_lines =
  let cat = Catalog.create () in
  let acc = Catalog.create_table cat schema in
  ignore (Table.insert acc (Tuple.to_list tuple |> Array.of_list));
  ignore (Table.insert acc [| Value.Int 8; Value.Null; Value.Float 2. |]);
  let log = Catalog.create_table cat (Schema.make "Log" [ Schema.column "m" Ctype.TText ]) in
  ignore (Table.insert log [| Value.Str "x" |]);
  Catalog.create_view cat "rich" "SELECT id FROM Acc WHERE bal > 1.0";
  Checkpoint.to_lines ~lsn:4 cat

(* one edit of a snapshot's lines: corrupt a byte, drop, duplicate or
   swap lines; indices wrap at the current length *)
let edit ls (kind, i, k, c) =
  let n = List.length ls in
  if n = 0 then ls
  else
    let i = i mod n and k' = k mod n in
    match kind mod 4 with
    | 0 -> List.mapi (fun j l -> if j = i && l <> "" then mutate l k c else l) ls
    | 1 -> List.filteri (fun j _ -> j <> i) ls
    | 2 -> List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) ls)
    | _ ->
      let a = Array.of_list ls in
      let x = a.(i) in
      a.(i) <- a.(k');
      a.(k') <- x;
      Array.to_list a

let gen_snapshot =
  let open QCheck.Gen in
  map
    (List.fold_left edit snapshot_lines)
    (list_size (1 -- 3) (quad nat nat nat char))

let prop_checkpoint_total =
  QCheck.Test.make ~count:1000 ~name:"checkpoint reader: a catalog or Wal_error"
    (QCheck.make ~print:(fun ls -> String.concat "\n" ls) gen_snapshot)
    only_wal_error

(* Snapshots that frame correctly but describe an impossible catalog are
   rejected with [Wal_error].  (A view's SQL is stored unparsed, so a
   bad view is not among them.) *)
let test_checkpoint_crafted () =
  let ty = Ctype.to_string in
  let header = "YCHK|1|4" in
  let table ?(pk = "0") cols =
    Printf.sprintf "T|0|Acc;%s;%s" pk
      (String.concat ";" (List.map (fun (n, t, nul) -> Printf.sprintf "%s:%s:%b" n (ty t) nul) cols))
  in
  let one_col = table [ ("id", Ctype.TInt, false) ] in
  let cases =
    [
      ("primary key out of range", [ header; table ~pk:"5" [ ("id", Ctype.TInt, false) ]; "E|1|0" ]);
      ("negative primary key", [ header; table ~pk:"-1" [ ("id", Ctype.TInt, false) ]; "E|1|0" ]);
      ("duplicate columns", [ header; table [ ("id", Ctype.TInt, false); ("id", Ctype.TInt, false) ]; "E|1|0" ]);
      ("duplicate tables", [ header; one_col; one_col; "E|2|0" ]);
      ("unknown table", [ header; "R|Nope|i1"; "E|0|1" ]);
      ("bad arity", [ header; one_col; "R|Acc|i1,i2"; "E|1|1" ]);
      ("empty row", [ header; one_col; "R|Acc|"; "E|1|1" ]);
      ("null into NOT NULL", [ header; one_col; "R|Acc|n"; "E|1|1" ]);
      ("wrong value type", [ header; one_col; "R|Acc|sx"; "E|1|1" ]);
      ("duplicate primary key", [ header; one_col; "R|Acc|i1"; "R|Acc|i1"; "E|1|2" ]);
      ("bad column type", [ header; "T|0|Acc;0;id:BLOB:false"; "E|1|0" ]);
      ("bad nullability", [ header; "T|0|Acc;0;id:INT:maybe"; "E|1|0" ]);
      ("no columns", [ header; "T|0|Acc;;"; "E|1|0" ]);
      ("negative version", [ header; "T|-3|Acc;0;id:INT:false"; "E|1|0" ]);
      ("bad footer", [ header; one_col; "E|x|0" ]);
      ("data after footer", [ header; one_col; "E|1|0"; "R|Acc|i1" ]);
      ("missing footer", [ header; one_col ]);
      ("bad header", [ "YCHK|2|4"; "E|0|0" ]);
      ("negative lsn", [ "YCHK|1|-4"; "E|0|0" ]);
      ("empty", []);
    ]
  in
  List.iter
    (fun (what, lines) ->
      match Checkpoint.of_lines lines with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Errors.Db_error (Errors.Wal_error _) -> ()
      | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e))
    cases

let suite =
  [
    QCheck_alcotest.to_alcotest prop_wal_codecs_total;
    QCheck_alcotest.to_alcotest prop_checkpoint_total;
    Alcotest.test_case "checkpoint reader: crafted catalogs" `Quick
      test_checkpoint_crafted;
  ]
