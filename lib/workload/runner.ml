module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Stats = Rgpdos_util.Stats
module Membrane = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Block_device = Rgpdos_block.Block_device
module Journalfs = Rgpdos_journalfs.Journalfs
module Userdb = Rgpdos_baseline.Userdb
module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Audit_log = Rgpdos_audit.Audit_log

type status = Done | Failed | Unsupported

type backend = {
  name : string;
  exec : Gdprbench.op -> status;
  simulated_now : unit -> Clock.ns;
}

let backend_name b = b.name

(* size the device to the population (each PD needs a record block, a
   membrane block, and slack for produced PD, envelopes and metadata) *)
let device_config ~population =
  let n = List.length population in
  {
    Block_device.default_config with
    Block_device.block_count = max 16_384 ((n * 8) + 4_096);
  }

(* ------------------------------------------------------------------ *)
(* rgpdOS backend                                                     *)

let grant_scope purpose =
  match purpose with
  | "analytics" -> Membrane.View "v_ano"
  | "marketing" -> Membrane.View "v_contact"
  | _ -> Membrane.All

let reader_touches = function
  | "analytics" -> [ (Population.type_name, [ "year_of_birth" ]) ]
  | "marketing" -> [ (Population.type_name, [ "name"; "email" ]) ]
  | _ -> [ (Population.type_name, [ "name"; "email"; "year_of_birth" ]) ]

let counting_reader _ctx inputs =
  Ok (Processing.value_output (Value.VInt (List.length inputs)))

let machine_backend_full ?pool ~seed ~population () =
  let config = device_config ~population in
  let machine =
    Machine.boot ~seed ~pd_device:config
      ~npd_device:Block_device.default_config ()
  in
  (match Machine.load_declarations machine Population.type_declaration with
  | Ok _ -> ()
  | Error e -> failwith ("machine backend: declarations: " ^ e));
  List.iter
    (fun purpose ->
      let spec =
        match
          Machine.make_processing machine
            ~name:("wl_" ^ purpose)
            ~purpose
            ~touches:(reader_touches purpose)
              (* counting is record-wise decomposable: shard counts sum *)
            ~shard_reduce:Processing.reduce_int_sum counting_reader
        with
        | Ok s -> s
        | Error e -> failwith ("machine backend: " ^ e)
      in
      match Machine.register_processing machine spec with
      | Ok _ -> ()
      | Error e -> failwith ("machine backend: register: " ^ e))
    Population.purposes;
  let subject_pds : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let collect_person (p : Population.person) =
    match
      Machine.collect machine ~type_name:Population.type_name
        ~subject:p.Population.subject_id ~interface:"web_form:signup_form.html"
        ~record:(Population.record_of p)
        ~consents:p.Population.consent_profile ()
    with
    | Ok pd_id ->
        let existing =
          Option.value ~default:[]
            (Hashtbl.find_opt subject_pds p.Population.subject_id)
        in
        Hashtbl.replace subject_pds p.Population.subject_id (pd_id :: existing);
        Done
    | Error _ -> Failed
  in
  List.iter (fun p -> ignore (collect_person p)) population;
  let exec (op : Gdprbench.op) =
    match op with
    | Gdprbench.Op_insert p -> collect_person p
    | Gdprbench.Op_purpose_query purpose -> (
        match
          Machine.invoke machine ?pool ~name:("wl_" ^ purpose)
            ~target:(Ded.All_of_type Population.type_name) ()
        with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_subject_read subject -> (
        match Hashtbl.find_opt subject_pds subject with
        | None | Some [] -> Done (* nothing to read *)
        | Some refs -> (
            match
              Machine.invoke machine ?pool ~name:"wl_service"
                ~target:(Ded.Pd_refs refs) ()
            with
            | Ok _ -> Done
            | Error _ -> Failed))
    | Gdprbench.Op_update_consent { subject; purpose; grant } -> (
        let scope = if grant then grant_scope purpose else Membrane.Denied in
        match Machine.set_consent machine ~subject ~purpose scope with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_access subject -> (
        match Machine.right_of_access machine ~subject with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_erase subject -> (
        match Machine.right_to_erasure machine ~subject with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_ttl_sweep ->
        ignore (Machine.sweep_ttl machine ());
        Done
    | Gdprbench.Op_verify_audit -> (
        match Audit_log.verify (Machine.audit machine) with
        | Ok () -> Done
        | Error _ -> Failed)
  in
  ( {
      name = "rgpdos";
      exec;
      simulated_now = (fun () -> Clock.now (Machine.clock machine));
    },
    machine )

let machine_backend ~seed ~population =
  fst (machine_backend_full ~seed ~population ())

(* ------------------------------------------------------------------ *)
(* baseline backends                                                  *)

let baseline_backend ~seed ~mode ~population =
  ignore seed;
  let clock = Clock.create () in
  let config = device_config ~population in
  let dev = Block_device.create ~config ~clock () in
  let fs = Journalfs.format dev ~journal_blocks:256 in
  let db =
    match Userdb.create fs ~mode with
    | Ok db -> db
    | Error e -> failwith ("baseline backend: " ^ Userdb.error_to_string e)
  in
  (match Userdb.create_table db Population.type_name with
  | Ok () -> ()
  | Error e -> failwith ("baseline backend: " ^ Userdb.error_to_string e));
  let table = Population.type_name in
  let two_years = 2 * Clock.year in
  let row_of (p : Population.person) =
    {
      Userdb.subject = p.Population.subject_id;
      fields = Population.baseline_fields p;
      allowed_purposes = Population.allowed_purposes_of p;
      expires_at = Some (Clock.now clock + two_years);
    }
  in
  let insert_person p =
    match Userdb.insert db ~table (row_of p) with
    | Ok _ -> Done
    | Error _ -> Failed
  in
  List.iter (fun p -> ignore (insert_person p)) population;
  let exec (op : Gdprbench.op) =
    match op with
    | Gdprbench.Op_insert p -> insert_person p
    | Gdprbench.Op_purpose_query purpose -> (
        match
          Userdb.query_purpose db ~table ~purpose ~now:(Clock.now clock)
        with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_subject_read subject -> (
        match Userdb.rows_of_subject db ~table subject with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_update_consent { subject; purpose; grant } -> (
        match Userdb.rows_of_subject db ~table subject with
        | Error _ -> Failed
        | Ok rows ->
            let update_row (id, row) =
              let allowed =
                if grant then
                  if List.mem purpose row.Userdb.allowed_purposes then
                    row.Userdb.allowed_purposes
                  else purpose :: row.Userdb.allowed_purposes
                else
                  List.filter (( <> ) purpose) row.Userdb.allowed_purposes
              in
              Userdb.update db ~table id
                { row with Userdb.allowed_purposes = allowed }
            in
            if List.for_all (fun r -> Result.is_ok (update_row r)) rows then Done
            else Failed)
    | Gdprbench.Op_access subject -> (
        match Userdb.export_subject db ~table subject with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_erase subject -> (
        match Userdb.delete_subject ~secure:true db ~table subject with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_ttl_sweep -> (
        match Userdb.expire_rows ~secure:true db ~table ~now:(Clock.now clock) with
        | Ok _ -> Done
        | Error _ -> Failed)
    | Gdprbench.Op_verify_audit ->
        (* the baseline has no tamper-evident processing log *)
        Unsupported
  in
  let name =
    match mode with Userdb.Vanilla -> "db-vanilla" | Userdb.Gdpr -> "db-gdpr"
  in
  { name; exec; simulated_now = (fun () -> Clock.now clock) }

(* ------------------------------------------------------------------ *)
(* execution                                                          *)

type result = {
  backend : string;
  total_ops : int;
  unsupported : int;
  errors : int;
  total_simulated_ns : int;
  per_op : (string * Stats.summary) list;
}

let run backend ops =
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let unsupported = ref 0 and errors = ref 0 in
  let sim0 = backend.simulated_now () in
  List.iter
    (fun op ->
      let t0 = backend.simulated_now () in
      let status = backend.exec op in
      let dt = backend.simulated_now () - t0 in
      (match status with
      | Done ->
          let key = Gdprbench.op_kind op in
          let bucket =
            match Hashtbl.find_opt samples key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace samples key l;
                l
          in
          bucket := float_of_int dt :: !bucket
      | Failed -> incr errors
      | Unsupported -> incr unsupported))
    ops;
  let per_op =
    Hashtbl.fold
      (fun key samples acc -> (key, Stats.summarize !samples) :: acc)
      samples []
    |> List.sort compare
  in
  {
    backend = backend.name;
    total_ops = List.length ops;
    unsupported = !unsupported;
    errors = !errors;
    total_simulated_ns = backend.simulated_now () - sim0;
    per_op;
  }

let ops_per_simulated_second r =
  if r.total_simulated_ns = 0 then 0.0
  else
    float_of_int (r.total_ops - r.unsupported)
    /. (float_of_int r.total_simulated_ns /. 1e9)

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v 2>%s: %d ops (%d unsupported, %d errors), %.2f simulated ms, %.0f ops/sim-s@,%a@]"
    r.backend r.total_ops r.unsupported r.errors
    (float_of_int r.total_simulated_ns /. 1e6)
    (ops_per_simulated_second r)
    (Format.pp_print_list (fun fmt (kind, s) ->
         Format.fprintf fmt "%-16s %a" kind Stats.pp_summary s))
    r.per_op
