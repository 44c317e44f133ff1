(* Executing one op, two ways.  [untraced] calls the [Machine] API as any
   client would.  [traced] issues the same public calls the [Machine] op
   is made of, each inside its own span, so that time is attributed to
   the layer that spends it; it must leave the machine in exactly the
   state [untraced] does. *)

module Clock = Rgpdos_util.Clock
module Machine = Rgpdos.Machine
module Dbfs = Rgpdos_dbfs.Dbfs
module Record = Rgpdos_dbfs.Record
module Audit_log = Rgpdos_audit.Audit_log
module Ded = Rgpdos_ded.Ded
module Processing_store = Rgpdos_ps.Processing_store
module Authority = Rgpdos_gdpr.Authority
module Membrane = Rgpdos_membrane.Membrane
module Population = Rgpdos_workload.Population
module Gdprbench = Rgpdos_workload.Gdprbench
open Ledger

let interface = "web_form:signup_form.html"

(* The scope a consent grant records, as [Runner]'s backend does. *)
let grant_scope = function
  | "analytics" -> Membrane.View "v_ano"
  | "marketing" -> Membrane.View "v_contact"
  | _ -> Membrane.All

let scope_of ~purpose ~grant = if grant then grant_scope purpose else Membrane.Denied

let reader purpose = "wl_" ^ purpose
let all_people = Ded.All_of_type Population.type_name

(* The pd references a subject read processes: the subject's pds, newest
   first, as [Runner] keeps them. *)
let refs_of ledger subject =
  match Ledger.find ledger subject with
  | Some s -> List.rev s.pds
  | None -> []

let access_document ~subject ~records ~history =
  Printf.sprintf "{\"subject\": \"%s\", \"records\": %s, \"processings\": %s}"
    subject records history

let of_result f = function Ok v -> f v | Error e -> Failed e

let untraced machine ledger (op : Gdprbench.op) =
  match op with
  | Gdprbench.Op_insert p ->
      Machine.collect machine ~type_name:Population.type_name
        ~subject:p.Population.subject_id ~interface
        ~record:(Population.record_of p) ~consents:p.Population.consent_profile ()
      |> of_result (fun id -> Inserted id)
  | Gdprbench.Op_purpose_query purpose ->
      Machine.invoke machine ~name:(reader purpose) ~target:all_people ()
      |> of_result (fun o -> Queried o)
  | Gdprbench.Op_subject_read subject ->
      Machine.invoke machine ~name:(reader "service")
        ~target:(Ded.Pd_refs (refs_of ledger subject)) ()
      |> of_result (fun o -> Read o)
  | Gdprbench.Op_update_consent { subject; purpose; grant } ->
      Machine.set_consent machine ~subject ~purpose (scope_of ~purpose ~grant)
      |> of_result (fun n -> Consented n)
  | Gdprbench.Op_access subject ->
      Machine.right_of_access machine ~subject |> of_result (fun d -> Accessed d)
  | Gdprbench.Op_erase subject ->
      Machine.right_to_erasure machine ~subject |> of_result (fun n -> Erased n)
  | Gdprbench.Op_verify_audit -> (
      match Audit_log.verify (Machine.audit machine) with
      | Ok () -> Verified
      | Error seq -> Failed (Printf.sprintf "audit chain broken at %d" seq))
  | Gdprbench.Op_ttl_sweep -> Failed "ttl_sweep is in no workload"

(* What the traced run learns beyond the spans. *)
type extras = {
  mutable scanned : int;  (** audit entries scanned by Art. 15 history *)
  mutable returned : int;  (** history entries returned (counted by the caller) *)
  mutable queries : Ded.outcome list;  (** purpose queries, newest first *)
}

let extras () = { scanned = 0; returned = 0; queries = [] }

let actor = Ded.actor
let dbfs_error e = Failed (Dbfs.error_to_string e)

let traced machine ledger tr ex ~op_index (op : Gdprbench.op) =
  let dbfs = Machine.dbfs machine and audit = Machine.audit machine in
  let clock = Machine.clock machine in
  let span layer name f = Trace.with_span tr ~layer name f in
  let append event =
    ignore
      (span "audit" "append" (fun () ->
           Audit_log.append audit ~now:(Clock.now clock) ~actor event))
  in
  let pds_of subject =
    span "dbfs" "pds_of_subject" (fun () -> Dbfs.pds_of_subject dbfs ~actor subject)
  in
  let invoke name target =
    span "ps" "invoke" (fun () ->
        Processing_store.invoke (Machine.ps machine) ~name ~target ())
    |> Result.map_error Processing_store.error_to_string
  in
  Trace.with_op tr ~op:op_index (Gdprbench.op_kind op) (fun () ->
      match op with
      | Gdprbench.Op_insert _ -> span "ded" "collect" (fun () -> untraced machine ledger op)
      | Gdprbench.Op_verify_audit -> span "audit" "verify" (fun () -> untraced machine ledger op)
      | Gdprbench.Op_ttl_sweep -> untraced machine ledger op
      | Gdprbench.Op_purpose_query purpose ->
          invoke (reader purpose) all_people
          |> of_result (fun o ->
                 ex.queries <- o :: ex.queries;
                 Queried o)
      | Gdprbench.Op_subject_read subject ->
          invoke (reader "service") (Ded.Pd_refs (refs_of ledger subject))
          |> of_result (fun o -> Read o)
      | Gdprbench.Op_access subject -> (
          match
            span "dbfs" "export_subject" (fun () ->
                Dbfs.export_subject dbfs ~actor subject)
          with
          | Error e -> dbfs_error e
          | Ok records -> (
              match pds_of subject with
              | Error e -> dbfs_error e
              | Ok pd_ids ->
                  ex.scanned <- ex.scanned + Audit_log.length audit;
                  let history =
                    span "audit" "export_for_subject" (fun () ->
                        Audit_log.export_for_subject audit ~pd_ids)
                  in
                  append (Audit_log.Exported { subject; pd_ids });
                  Accessed (access_document ~subject ~records ~history)))
      | Gdprbench.Op_update_consent { subject; purpose; grant } -> (
          let scope = scope_of ~purpose ~grant in
          match pds_of subject with
          | Error e -> dbfs_error e
          | Ok pd_ids ->
              (* each lineage once, as [Machine.set_consent] does *)
              let rec go updated seen = function
                | [] -> Consented updated
                | pd_id :: rest -> (
                    match
                      span "dbfs" "get_membrane" (fun () ->
                          Dbfs.get_membrane dbfs ~actor pd_id)
                    with
                    | Error e -> dbfs_error e
                    | Ok m -> (
                        let lineage = Membrane.lineage_root m in
                        if List.mem lineage seen then go updated seen rest
                        else
                          match
                            span "dbfs" "update_membranes_by_lineage" (fun () ->
                                Dbfs.update_membranes_by_lineage dbfs ~actor
                                  ~lineage (fun m ->
                                    Membrane.set_consent m ~purpose scope))
                          with
                          | Error e -> dbfs_error e
                          | Ok n ->
                              append
                                (Audit_log.Consent_changed
                                   { pd_id; purpose; granted = scope <> Membrane.Denied });
                              go (updated + n) (lineage :: seen) rest))
              in
              go 0 [] pd_ids)
      | Gdprbench.Op_erase subject -> (
          match pds_of subject with
          | Error e -> dbfs_error e
          | Ok pd_ids ->
              let sealer =
                Authority.sealer (Machine.authority machine) ~prng:(Machine.prng machine)
              in
              let seal record = span "crypto" "seal" (fun () -> sealer record) in
              (* [Ded.builtin_crypto_erase], call by call *)
              let erase pd_id =
                match
                  span "dbfs" "get_membrane" (fun () -> Dbfs.get_membrane dbfs ~actor pd_id)
                with
                | Error e -> Error e
                | Ok m -> (
                    let withdrawn = Membrane.withdraw_all m in
                    match
                      span "dbfs" "update_membrane" (fun () ->
                          Dbfs.update_membrane dbfs ~actor pd_id withdrawn)
                    with
                    | Error e -> Error e
                    | Ok () -> (
                        match
                          span "dbfs" "erase_with" (fun () ->
                              Dbfs.erase_with dbfs ~actor pd_id ~seal)
                        with
                        | Error e -> Error e
                        | Ok () ->
                            append (Audit_log.Erased { pd_id; mode = "crypto" });
                            Ok ()))
              in
              let rec go erased = function
                | [] -> Erased erased
                | pd_id :: rest -> (
                    match
                      span "dbfs" "entry_info" (fun () -> Dbfs.entry_info dbfs ~actor pd_id)
                    with
                    | Error e -> dbfs_error e
                    | Ok (_, _, true) -> go erased rest
                    | Ok (_, _, false) -> (
                        match erase pd_id with
                        | Error e -> dbfs_error e
                        | Ok () -> go (erased + 1) rest))
              in
              go 0 pd_ids))

(* Bytes of the records an insert hands to DBFS (the denominator of
   write amplification). *)
let collected_bytes (op : Gdprbench.op) =
  match op with
  | Gdprbench.Op_insert p -> String.length (Record.encode (Population.record_of p))
  | _ -> 0
