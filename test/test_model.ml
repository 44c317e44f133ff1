(* The executable GDPR model and its refinement harness: pure-model
   unit laws, the qcheck lockstep law (any generated op script leaves
   the real DBFS observationally equal to the model, on both
   allocators, with the index/cache-coherence audit riding along), the
   crash-refinement and degraded-mode laws, the full campaign
   (linearizability at 1/2/4 domains and the two crash sweeps included,
   byte-deterministic in its seed), the injected-bug
   demonstration (a deliberately broken DBFS shim is caught with a
   shrunk, replayable counterexample), and the BENCH_model_check.json
   artifact machinery (absolute conformance gate included). *)

module Json = Rgpdos_util.Json
module Prng = Rgpdos_util.Prng
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module M = Rgpdos_membrane.Membrane
module Model = Rgpdos_model.Model
module RF = Rgpdos_model.Refine
module BR = Rgpdos_workload.Bench_report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_strings = Alcotest.(check (list string))

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "model error: %s"
        (match e with
        | Model.Unknown_pd id -> "unknown pd " ^ id
        | Model.Already_erased id -> "already erased " ^ id)

let membrane ~pd_id ~subject ?ttl () =
  M.make ~pd_id ~type_name:"item" ~subject_id:subject ~origin:M.Subject
    ~consents:[ ("service", M.All) ]
    ~created_at:1_000 ?ttl ()

let record i = [ ("k_int", Value.VInt i); ("k_str", Value.VString "x") ]

let seeded_model () =
  let m = Model.empty in
  let m =
    Model.insert m ~pd_id:"pd1" ~type_name:"item" ~subject:"s0"
      ~record:(record 1)
      ~membrane:(membrane ~pd_id:"pd1" ~subject:"s0" ())
  in
  let m =
    Model.insert m ~pd_id:"pd2" ~type_name:"item" ~subject:"s1"
      ~record:(record 2)
      ~membrane:(membrane ~pd_id:"pd2" ~subject:"s1" ~ttl:500 ())
  in
  Model.insert m ~pd_id:"pd3" ~type_name:"item" ~subject:"s0"
    ~record:(record 3)
    ~membrane:(membrane ~pd_id:"pd3" ~subject:"s0" ())

(* ------------------------------------------------------------------ *)
(* pure model                                                         *)

let test_model_observables () =
  let m = seeded_model () in
  check_strings "subjects sorted" [ "s0"; "s1" ] (Model.subjects m);
  check_strings "pds_of_subject insertion order" [ "pd1"; "pd3" ]
    (Model.pds_of_subject m "s0");
  check_strings "list_pds" [ "pd1"; "pd2"; "pd3" ] (Model.list_pds m "item");
  check_strings "select live matches" [ "pd2"; "pd3" ]
    (Model.select m "item" (Query.Gt ("k_int", Value.VInt 1)));
  check_strings "expired: pd2 only, ttl 500 from created_at 1000" [ "pd2" ]
    (Model.expired m ~now:2_000);
  check_strings "nothing expired before the ttl" []
    (Model.expired m ~now:1_200);
  check_int "live_count" 3 (Model.live_count m)

let test_model_erase_delete () =
  let m = seeded_model () in
  let m = ok (Model.erase m "pd1" ~sealed:"sealed-bytes") in
  (match Model.find m "pd1" with
  | Some { Model.p_state = Model.Erased s; _ } ->
      check_string "sealed envelope kept" "sealed-bytes" s
  | _ -> Alcotest.fail "pd1 not erased");
  (* erased entries stay accountable but drop out of live observables *)
  check_strings "erased pd still listed" [ "pd1"; "pd3" ]
    (Model.pds_of_subject m "s0");
  check_strings "erased pd not selected" []
    (Model.select m "item" (Query.Eq ("k_int", Value.VInt 1)));
  (match Model.update_record m "pd1" (record 9) with
  | Error (Model.Already_erased _) -> ()
  | _ -> Alcotest.fail "update_record on erased pd must fail");
  (* membranes on erased entries stay updatable (consent is live even
     after crypto-erasure), like Dbfs.update_membrane *)
  let pd1 = Option.get (Model.find m "pd1") in
  let m =
    ok (Model.update_membrane m "pd1" (M.withdraw pd1.Model.p_membrane ~purpose:"service"))
  in
  let m = ok (Model.delete m "pd3") in
  check_strings "deleted pd gone" [ "pd1" ] (Model.pds_of_subject m "s0");
  (match Model.update_record m "nope" (record 0) with
  | Error (Model.Unknown_pd _) -> ()
  | _ -> Alcotest.fail "unknown pd must fail");
  check_int "live_count after erase+delete" 1 (Model.live_count m)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_model_dump () =
  let m = seeded_model () in
  check_bool "dump mentions every pd" true
    (List.for_all (fun id -> contains ~needle:id (Model.dump m))
       [ "pd1"; "pd2"; "pd3" ]);
  (* dump_excluding drops quarantined entries on the model side, the
     same way the crash harness drops them from the recovered store *)
  let full = Model.dump m in
  let excl = Model.dump_excluding m ~exclude:[ "pd2" ] in
  check_bool "dump differs once pd2 is excluded" true (full <> excl);
  check_string "excluding nothing is dump" full
    (Model.dump_excluding m ~exclude:[]);
  check_bool "equal is structural" true
    (Model.equal m (seeded_model ()));
  check_bool "equal detects divergence" false
    (Model.equal m (ok (Model.delete m "pd1")))

(* ------------------------------------------------------------------ *)
(* qcheck laws                                                        *)

let qcount default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

(* Scripts shrink by op removal (QCheck.Shrink.list), matching the
   harness's own greedy shrinker; counterexamples print as the
   replayable script dump. *)
let arb_script =
  QCheck.make
    ~print:RF.script_to_string ~shrink:QCheck.Shrink.list
    (QCheck.Gen.map
       (fun seed -> RF.gen_script (Prng.create ~seed:(Int64.of_int seed) ()))
       (QCheck.Gen.int_bound 1_000_000))

let prop_lockstep =
  QCheck.Test.make ~count:(qcount 15)
    ~name:"lockstep: dbfs == model on every observable, both allocators"
    arb_script
    (fun script ->
      List.for_all
        (fun cfg ->
          match RF.run_script cfg script with
          | Ok _ -> true
          | Error e -> QCheck.Test.fail_reportf "%s: %s" (RF.cfg_to_string cfg) e)
        [ RF.base_cfg; { RF.base_cfg with RF.segmented = true } ])

let prop_degraded =
  QCheck.Test.make ~count:(qcount 8)
    ~name:"degraded: unrecoverable damage => every mutation refused, \
           Art. 15 reads survive"
    arb_script
    (fun script ->
      match RF.check_degraded script with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ------------------------------------------------------------------ *)
(* crash refinement + full campaign                                   *)

let test_crash_matrix () =
  let script = RF.gen_script (Prng.create ~seed:99L ()) in
  List.iteri
    (fun i cfg ->
      match RF.run_crash ~spec_seed:(7_000 + i) cfg script with
      | Ok n -> check_bool "exercised at least the crash point" true (n >= 1)
      | Error e -> Alcotest.failf "crash refinement (%s): %s" (RF.cfg_to_string cfg) e)
    RF.all_cfgs

(* One full run, shared by the campaign and artifact tests. *)
let full_run = lazy (RF.run ~seed:11 ~scripts:2 ())

let test_campaign () =
  let r = Lazy.force full_run in
  check_bool "campaign passes" true (RF.all_pass r);
  Alcotest.(check (float 0.0)) "conformance 100" 100.0 (RF.conformance_pct r);
  check_int "scripts" 2 r.RF.r_scripts;
  Alcotest.(check (list int)) "lin domains" [ 1; 2; 4 ] r.RF.r_lin_domains;
  check_bool "crash matrix covered" true
    (r.RF.r_crash_runs = 2 * List.length RF.all_cfgs);
  check_bool "fault points exercised" true (r.RF.r_fault_points > 0);
  check_bool "observables compared" true (r.RF.r_ops_checked > 100)

(* Both sweeps crash after every write of their script, on every config,
   and every point recovers to a model prefix with no residue. *)
let test_sweeps_exhaustive () =
  let r = Lazy.force full_run in
  let rows name = List.filter (fun row -> row.RF.sr_sweep = name) r.RF.r_sweeps in
  check_strings "campaign sweep runs on every config"
    (List.map RF.cfg_to_string RF.all_cfgs)
    (List.map (fun row -> row.RF.sr_cfg) (rows "campaign"));
  check_strings "compaction sweep runs on the segmented store"
    [ RF.cfg_to_string { RF.base_cfg with RF.segmented = true } ]
    (List.map (fun row -> row.RF.sr_cfg) (rows "compact"));
  List.iter
    (fun row ->
      let ctx = row.RF.sr_sweep ^ " " ^ row.RF.sr_cfg in
      check_bool (ctx ^ ": the script writes") true (row.RF.sr_writes > 0);
      Alcotest.(check (list int))
        (ctx ^ ": crashed after every write 1..W")
        (List.init row.RF.sr_writes (fun i -> i + 1))
        row.RF.sr_crashed;
      check_int (ctx ^ ": no point failed") 0 row.RF.sr_failed)
    r.RF.r_sweeps;
  check_int "nothing uncovered" 0 (RF.uncovered_writes r.RF.r_sweeps)

let test_deterministic_report () =
  let r1 = Lazy.force full_run in
  let r2 = RF.run ~seed:11 ~scripts:2 () in
  check_string "same seed => byte-identical report"
    (Json.to_string (RF.to_json r1))
    (Json.to_string (RF.to_json r2))

(* ------------------------------------------------------------------ *)
(* the harness catches an injected semantic bug                       *)

let test_injected_bug_caught_and_shrunk () =
  match
    RF.find_counterexample ~bug:RF.Drop_consent_flip ~seed:3 ~max_scripts:50
      RF.base_cfg
  with
  | None -> Alcotest.fail "injected consent-flip bug was not caught"
  | Some f ->
      let n = List.length f.RF.f_script in
      check_bool "counterexample shrunk to <= 4 ops" true (n <= 4);
      check_bool "shrinking recorded" true (f.RF.f_shrunk_from >= n);
      check_bool "a consent flip survives shrinking" true
        (List.exists (function RF.Flip _ -> true | _ -> false) f.RF.f_script);
      (* replayable: the shrunk script still fails under the bug and
         passes without it *)
      (match RF.run_script ~bug:RF.Drop_consent_flip RF.base_cfg f.RF.f_script with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shrunk counterexample does not replay");
      (match RF.run_script RF.base_cfg f.RF.f_script with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "shrunk script fails without the bug: %s" e);
      let rendered = RF.failure_to_string f in
      check_bool "report carries the seed" true
        (String.length rendered > 0 && f.RF.f_seed >= 0)

(* ------------------------------------------------------------------ *)
(* artifact machinery                                                 *)

let model = BR.Section Rgpdos_bench.Sections.model

let test_report_roundtrip () =
  let r = Lazy.force full_run in
  let j = BR.measure Rgpdos_bench.Sections.model ~quick:true ~wall_ms:12.0 r in
  (match BR.validate model j with
  | [] -> ()
  | e -> Alcotest.failf "fresh report invalid: %s" (String.concat "; " e));
  (* the JSON survives a print/parse cycle *)
  let text = Json.to_string (BR.to_json model j) in
  (match Result.bind (Json.of_string text) (BR.of_json model) with
  | Ok j' -> check_bool "reparsed report valid" true (BR.validate model j' = [])
  | Error e -> Alcotest.failf "report does not reparse: %s" e);
  (* the gate is absolute, on the fresh run and on the committed one *)
  let below =
    {
      j with
      BR.values =
        List.map
          (fun (k, v) -> (k, if k = "conformance_pct" then 99.9 else v))
          j.BR.values;
    }
  in
  check_bool "fresh run under 100% fails" true (BR.validate model below <> []);
  check_bool "committed run under 100% fails" true
    (BR.compare model ~committed:below ~fresh:j <> []);
  check_bool "100% on both sides passes" true
    (BR.compare model ~committed:j ~fresh:j = [])

(* The sweep gates bite: a crash point gone from a sweep, a failed point,
   or no sweep at all each fail validation. *)
let test_sweep_gates_reject () =
  let r = Lazy.force full_run in
  let verdict r =
    BR.validate model
      (BR.measure Rgpdos_bench.Sections.model ~quick:true ~wall_ms:0.0 r)
  in
  check_bool "fresh report validates" true (verdict r = []);
  let holey =
    match r.RF.r_sweeps with
    | row :: rest -> { row with RF.sr_crashed = List.tl row.RF.sr_crashed } :: rest
    | [] -> Alcotest.fail "no sweep rows"
  in
  check_bool "missing crash point rejected" true
    (verdict { r with RF.r_sweeps = holey } <> []);
  let failed =
    {
      RF.f_mode = "sweep:campaign";
      f_cfg = RF.cfg_to_string RF.base_cfg;
      f_plan = "plan{crash@1}";
      f_seed = 11;
      f_spec_seed = 0;
      f_script = [];
      f_detail = "forced";
      f_shrunk_from = 0;
    }
  in
  check_bool "failed crash point rejected" true
    (verdict { r with RF.r_failures = [ failed ] } <> []);
  check_bool "no sweep rejected" true (verdict { r with RF.r_sweeps = [] } <> [])

let committed_report () =
  let path =
    List.find_opt Sys.file_exists
      [ "../BENCH_model_check.json"; "BENCH_model_check.json" ]
  in
  match Option.map (BR.read_file model) path with
  | None -> Alcotest.fail "BENCH_model_check.json missing"
  | Some (Error e) -> Alcotest.failf "BENCH_model_check.json: %s" e
  | Some (Ok v) -> v

let test_committed_artifact () =
  match BR.validate model (committed_report ()) with
  | [] -> ()
  | e -> Alcotest.failf "BENCH_model_check.json invalid: %s" (String.concat "; " e)

(* The committed sweep rows describe the sweeps this code runs: the
   swept scripts are fixed, so each (sweep, config) pair and its write
   count W must match a fresh run, with every point crashed and none
   failed. *)
let test_campaign_committed_artifact () =
  let r = Lazy.force full_run in
  let num k j = Option.bind (Json.member k j) Json.to_float in
  let sweeps =
    match
      Option.bind (Json.member "sweeps" (committed_report ()).BR.detail) Json.to_list
    with
    | Some l -> l
    | None -> Alcotest.fail "committed artifact has no sweeps"
  in
  let committed =
    List.concat_map
      (fun sw ->
        let name = Option.value ~default:"?" (Option.bind (Json.member "name" sw) Json.to_str) in
        Alcotest.(check (option (float 0.0))) (name ^ ": no failed point") (Some 0.0)
          (num "failures" sw);
        Alcotest.(check (option (float 0.0))) (name ^ ": conformance 100") (Some 100.0)
          (num "conformance_pct" sw);
        let writes =
          match Json.member "writes" sw with
          | Some (Json.Obj kv) ->
              List.map
                (fun (cfg, w) ->
                  (name, cfg, int_of_float (Option.value ~default:(-1.0) (Json.to_float w))))
                kv
          | _ -> Alcotest.failf "%s: no per-config writes" name
        in
        Alcotest.(check (option (float 0.0))) (name ^ ": points = sum of W")
          (Some (float_of_int (List.fold_left (fun a (_, _, w) -> a + w) 0 writes)))
          (num "points" sw);
        writes)
      sweeps
  in
  Alcotest.(check (list (triple string string int)))
    "committed sweeps match a fresh run"
    (List.map (fun row -> (row.RF.sr_sweep, row.RF.sr_cfg, row.RF.sr_writes)) r.RF.r_sweeps)
    committed

let () =
  Alcotest.run "model"
    [
      ( "pure-model",
        [
          Alcotest.test_case "observables" `Quick test_model_observables;
          Alcotest.test_case "erase/delete" `Quick test_model_erase_delete;
          Alcotest.test_case "dump/equal" `Quick test_model_dump;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest prop_lockstep;
          QCheck_alcotest.to_alcotest prop_degraded;
        ] );
      ( "crash",
        [ Alcotest.test_case "config matrix" `Quick test_crash_matrix ] );
      ( "campaign",
        [
          Alcotest.test_case "full run" `Quick test_campaign;
          Alcotest.test_case "exhaustive, all invariants hold" `Quick
            test_sweeps_exhaustive;
          Alcotest.test_case "deterministic report" `Quick
            test_deterministic_report;
          Alcotest.test_case "validation rejects failures" `Quick
            test_sweep_gates_reject;
          Alcotest.test_case "committed artifact validates" `Quick
            test_campaign_committed_artifact;
        ] );
      ( "injected-bug",
        [
          Alcotest.test_case "caught, shrunk, replayable" `Quick
            test_injected_bug_caught_and_shrunk;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "fresh report roundtrip + gate" `Quick
            test_report_roundtrip;
          Alcotest.test_case "committed artifact validates" `Quick
            test_committed_artifact;
        ] );
    ]
