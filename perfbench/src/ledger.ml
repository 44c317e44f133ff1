(* The output oracle's model.  The benchmark keeps its own record of every
   subject's pds, consent decisions and erasure, built from the inputs it
   generated and the results the machine returned, and checks each op's
   output against it. *)

module Membrane = Rgpdos_membrane.Membrane
module Population = Rgpdos_workload.Population
module Gdprbench = Rgpdos_workload.Gdprbench
module Ded = Rgpdos_ded.Ded
module Json = Rgpdos_util.Json

type subject = {
  email : string;
  mutable pds : string list;  (* oldest first *)
  mutable erased : bool;
  mutable granted : (string * bool) list;  (* purpose -> consented *)
}

type t = { subjects : (string, subject) Hashtbl.t }

(* What an op returned, as the oracle sees it. *)
type outcome =
  | Inserted of string  (** new pd id *)
  | Queried of Ded.outcome
  | Read of Ded.outcome
  | Consented of int  (** membranes updated *)
  | Accessed of string  (** the Art. 15 JSON document *)
  | Erased of int  (** pds destroyed *)
  | Verified
  | Failed of string

let granted_of_profile profile =
  List.map (fun (purpose, scope) -> (purpose, scope <> Membrane.Denied)) profile

let add t (p : Population.person) pd_ids =
  Hashtbl.replace t.subjects p.Population.subject_id
    {
      email = p.Population.email;
      pds = pd_ids;
      erased = false;
      granted = granted_of_profile p.Population.consent_profile;
    }

(* [pd_ids] are the population's pds in collection order. *)
let create people pd_ids =
  if List.length people <> List.length pd_ids then
    invalid_arg "Ledger.create: one pd per person expected";
  let t = { subjects = Hashtbl.create (2 * List.length people) } in
  List.iter2 (fun p id -> add t p [ id ]) people pd_ids;
  t

let find t subject = Hashtbl.find_opt t.subjects subject

(* Live pds whose current consent admits [purpose]: what a query over
   the whole type must consume. *)
let expected_consumed t purpose =
  Hashtbl.fold
    (fun _ s acc ->
      if (not s.erased) && List.assoc_opt purpose s.granted = Some true then
        acc + List.length s.pds
      else acc)
    t.subjects 0

(* Non-overlapping occurrences of [sub] in [s], without allocating. *)
let count_substring s sub =
  let n = String.length s and m = String.length sub in
  let matches_at i =
    let rec eq k = k = m || (s.[i + k] = sub.[k] && eq (k + 1)) in
    eq 0
  in
  let rec go i acc =
    if m = 0 || i > n - m then acc
    else
      match String.index_from_opt s i sub.[0] with
      | None -> acc
      | Some j when j > n - m -> acc
      | Some j -> if matches_at j then go (j + m) (acc + 1) else go (j + 1) acc
  in
  go 0 0

let contains s sub = count_substring s sub > 0

(* An Art. 15 document must parse, name the subject, hold exactly the
   subject's live records and mention every pd the subject has (erased
   ones appear in the processing history). *)
let check_export s ~subject doc =
  match Json.of_string doc with
  | Error e -> Error ("export does not parse: " ^ e)
  | Ok json -> (
      let ids =
        match Option.bind (Json.member "records" json) Json.to_list with
        | None -> None
        | Some records ->
            Some
              (List.filter_map
                 (fun r -> Option.bind (Json.member "id" r) Json.to_str)
                 records)
      in
      let live = if s.erased then [] else s.pds in
      match (Option.bind (Json.member "subject" json) Json.to_str, ids) with
      | Some who, _ when who <> subject -> Error ("export names subject " ^ who)
      | None, _ | _, None -> Error "export lacks subject or records"
      | Some _, Some ids ->
          if List.sort compare ids <> List.sort compare live then
            Error
              (Printf.sprintf "export of %s lists records [%s], expected [%s]"
                 subject (String.concat "," ids) (String.concat "," live))
          else (
            match List.find_opt (fun pd -> not (contains doc pd)) s.pds with
            | Some pd -> Error (Printf.sprintf "export of %s omits %s" subject pd)
            | None -> Ok ()))

(* Check one op's outcome and apply it to the model. *)
let apply t (op : Gdprbench.op) outcome =
  let known subject k =
    match find t subject with
    | None -> Error ("unknown subject " ^ subject)
    | Some s -> k s
  in
  match (op, outcome) with
  | _, Failed e -> Error (Gdprbench.op_kind op ^ " failed: " ^ e)
  | Gdprbench.Op_insert p, Inserted pd_id ->
      if Hashtbl.mem t.subjects p.Population.subject_id then
        Error ("insert reused subject " ^ p.Population.subject_id)
      else (
        add t p [ pd_id ];
        Ok ())
  | Gdprbench.Op_purpose_query purpose, Queried o ->
      let expected = expected_consumed t purpose in
      if o.Ded.consumed = expected then Ok ()
      else
        Error
          (Printf.sprintf "query %s consumed %d, ledger says %d" purpose
             o.Ded.consumed expected)
  | Gdprbench.Op_subject_read subject, Read o ->
      known subject (fun s ->
          let expected = if s.erased then 0 else List.length s.pds in
          if o.Ded.consumed = expected then Ok ()
          else
            Error
              (Printf.sprintf "read of %s consumed %d, ledger says %d" subject
                 o.Ded.consumed expected))
  | Gdprbench.Op_update_consent { subject; purpose; grant }, Consented n ->
      known subject (fun s ->
          if not s.erased then
            s.granted <-
              (purpose, grant) :: List.remove_assoc purpose s.granted;
          (* every membrane of the subject is updated, erased ones too *)
          if n = List.length s.pds then Ok ()
          else
            Error
              (Printf.sprintf "consent on %s updated %d membranes, ledger says %d"
                 subject n (List.length s.pds)))
  | Gdprbench.Op_access subject, Accessed doc ->
      known subject (fun s -> check_export s ~subject doc)
  | Gdprbench.Op_erase subject, Erased n ->
      known subject (fun s ->
          let expected = if s.erased then 0 else List.length s.pds in
          s.erased <- true;
          s.granted <- List.map (fun (p, _) -> (p, false)) s.granted;
          if n = expected then Ok ()
          else
            Error
              (Printf.sprintf "erasure of %s destroyed %d pds, ledger says %d"
                 subject n expected))
  | Gdprbench.Op_verify_audit, Verified -> Ok ()
  | _ -> Error ("unexpected outcome for " ^ Gdprbench.op_kind op)

(* Emails that must not survive on the PD image: those of erased
   subjects, minus any that a live subject also carries. *)
let erased_emails t =
  let live = Hashtbl.create 64 in
  Hashtbl.iter (fun _ s -> if not s.erased then Hashtbl.replace live s.email ()) t.subjects;
  Hashtbl.fold
    (fun _ s acc ->
      if s.erased && not (Hashtbl.mem live s.email) then s.email :: acc else acc)
    t.subjects []
  |> List.sort_uniq compare
