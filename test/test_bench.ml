(* The bench-gate registry: the tiny JSON layer it is built on, the
   generic report validator and comparator, and every committed
   BENCH_*.json.  The per-gate tests are generated from the registry: for
   each gate of each section, a copy of the committed artifact has that
   one metric moved onto and just past its bar. *)

module Json = Rgpdos_util.Json
module BR = Rgpdos_workload.Bench_report
module E = Rgpdos_workload.Experiments
module S = Rgpdos_bench.Sections

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)

let sample =
  Json.Obj
    [
      ("s", Json.Str "a \"quoted\" line\nwith\ttabs and \\slashes");
      ("n", Json.Num 42.0);
      ("f", Json.Num 1.5);
      ("yes", Json.Bool true);
      ("no", Json.Bool false);
      ("nothing", Json.Null);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List
          [ Json.Num 1.0; Json.Str "two"; Json.Obj [ ("k", Json.Num 3.0) ] ] );
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample) with
      | Ok v ->
          check_bool
            (Printf.sprintf "roundtrip indent=%d" indent)
            true (v = sample)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ 0; 2; 4 ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "tru"; "{\"a\" 1}"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  (match Json.member "n" sample with
  | Some v -> check_bool "num" true (Json.to_float v = Some 42.0)
  | None -> Alcotest.fail "member n missing");
  check_bool "missing member" true (Json.member "absent" sample = None);
  check_bool "member of non-obj" true (Json.member "x" (Json.Num 1.0) = None)


(* ------------------------------------------------------------------ *)
(* reports                                                            *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let hotpath = BR.Section S.hotpath

let fake_e1 : E.e1_result =
  {
    e1_subjects = 10;
    e1_stage_ns = List.map (fun s -> (s, 500)) S.e1_stages;
    e1_total_ns = 3500;
    e1_device = [ ("merged_runs", 2); ("reads", 20); ("vec_reads", 2) ];
  }

let fake_hotpath : S.hotpath =
  {
    micro = List.map (fun (name, _) -> (name, 2200.0, 0.97)) S.micro_cases;
    e1 = fake_e1;
    e4 =
      [ { e4_records_per_subject = 1; e4_sim_us = 18.2; e4_export_complete = true } ];
  }

let fake_report = BR.measure S.hotpath ~quick:true ~wall_ms:12.5 fake_hotpath

let with_value (r : BR.report) name v =
  { r with values = List.map (fun (k, x) -> (k, if k = name then v else x)) r.values }

let test_report_valid_and_parses_back () =
  check_bool "fresh report valid" true (BR.validate hotpath fake_report = []);
  (* what the file holds must parse back to an equally valid report *)
  let text = Json.to_string (BR.to_json hotpath fake_report) in
  match Result.bind (Json.of_string text) (BR.of_json hotpath) with
  | Error e -> Alcotest.failf "emitted report does not parse back: %s" e
  | Ok parsed ->
      check_string "identical after roundtrip" text
        (Json.to_string (BR.to_json hotpath parsed));
      check_bool "parsed report valid" true (BR.validate hotpath parsed = [])

let test_report_rejects_bad_shapes () =
  let rejected what v =
    check_bool what true (Result.is_error (BR.of_json hotpath v))
  in
  rejected "empty object" (Json.Obj []);
  rejected "wrong schema id" (Json.Obj [ ("schema", Json.Str "something-else/9") ]);
  rejected "another section's artifact"
    (BR.to_json hotpath { fake_report with section = "scale" });
  let fails what r = check_bool what true (BR.validate hotpath r <> []) in
  fails "missing hot-path row"
    { fake_report with
      values = List.remove_assoc "micro.chacha20/1KiB" fake_report.values };
  fails "non-positive ns_per_op" (with_value fake_report "micro.sha256/1KiB" 0.0);
  fails "not a number" (with_value fake_report "e1.total_sim_ns" Float.nan)

(* ------------------------------------------------------------------ *)
(* the committed artifacts                                            *)

(* `dune runtest` runs from the test dir (the deps are staged one level
   up); `dune exec test/test_bench.exe` runs from the project root *)
let artifact_dir = if Sys.file_exists "../BENCH_hotpath.json" then ".." else "."

let committed section =
  let path = Filename.concat artifact_dir (BR.artifact section) in
  match BR.read_file section path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" path e

let test_committed_hotpath () =
  let r = committed hotpath in
  check_bool "validates" true (BR.validate hotpath r = []);
  List.iter
    (fun name -> check_bool ("has " ^ name) true (List.mem_assoc name r.values))
    [ "micro.sha256/1KiB"; "e1.total_sim_ns"; "e1.ded_load_data"; "e4.rows" ]

let test_every_artifact_validates () =
  List.iter
    (fun s ->
      match BR.validate s (committed s) with
      | [] -> ()
      | lines -> Alcotest.failf "%s: %s" (BR.artifact s) (String.concat "; " lines))
    S.all

(* a deleted section must not leave its artifact behind *)
let test_every_root_artifact_has_a_section () =
  let artifacts = List.map BR.artifact S.all in
  Array.iter
    (fun f ->
      if
        String.length f > 11
        && String.sub f 0 6 = "BENCH_"
        && Filename.check_suffix f ".json"
        && not (List.mem f artifacts)
      then Alcotest.failf "%s names no registered section" f)
    (Sys.readdir artifact_dir)

let copy src dst =
  let ic = open_in_bin src in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc raw;
  close_out oc

let copy_artifact s dir =
  copy
    (Filename.concat artifact_dir (BR.artifact s))
    (Filename.concat dir (BR.artifact s))

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* a directory holding every committed artifact but [except]'s *)
let dir_without except =
  let dir = Filename.temp_dir "bench-gates" "" in
  List.iter
    (fun s ->
      if BR.name s <> BR.name except then
        copy_artifact s dir)
    S.all;
  dir

let test_missing_artifact_fails () =
  List.iter
    (fun s ->
      let fresh = committed s in
      let dir = dir_without s in
      (match BR.compare_dir ~dir s fresh with
      | [ line ] ->
          check_bool (line ^ " names the file") true (contains line (BR.artifact s))
      | lines ->
          Alcotest.failf "%s: expected one failure, got %d" (BR.name s)
            (List.length lines));
      copy_artifact s dir;
      check_bool (BR.name s ^ " passes once present") true
        (BR.compare_dir ~dir s fresh = []);
      remove_dir dir)
    S.all

let test_unparseable_artifact_fails () =
  let dir = dir_without hotpath in
  let oc = open_out (Filename.concat dir "BENCH_hotpath.json") in
  output_string oc "{\"schema\": ";
  close_out oc;
  let lines = BR.compare_dir ~dir hotpath (committed hotpath) in
  remove_dir dir;
  match lines with
  | [ line ] ->
      check_bool "names the file" true (contains line "BENCH_hotpath.json");
      (* the JSON parser's own message, with its offset *)
      check_bool ("carries the parse error: " ^ line) true (contains line "offset")
  | lines -> Alcotest.failf "expected one failure, got %d" (List.length lines)

let test_vanished_metric_fails () =
  let r = committed hotpath in
  let fresh = { r with values = List.remove_assoc "e1.ded_filter" r.values } in
  check_bool "a stage missing from the fresh run fails" true
    (List.exists
       (fun l -> contains l "e1.ded_filter")
       (BR.compare hotpath ~committed:r ~fresh))

(* The gate inventory, pinned: loosening, dropping or renaming a gate in
   the registry must show up here as a reviewed change to this table. *)
let pinned_gates =
  [
    "hotpath micro.sha256/1KiB: > 0";
    "hotpath micro.hmac-sha256/1KiB: > 0";
    "hotpath micro.chacha20/1KiB: > 0";
    "hotpath micro.bignum/modpow-190bit: > 0";
    "hotpath micro.envelope/seal-1KiB: > 0";
    "hotpath micro.envelope/open-1KiB: > 0";
    "hotpath micro.membrane/encode: > 0";
    "hotpath micro.membrane/decode: > 0";
    "hotpath micro.membrane/decide: > 0";
    "hotpath micro.record/encode: > 0";
    "hotpath micro.record/decode: > 0";
    "hotpath micro.audit/append: > 0";
    "hotpath e1.total_sim_ns: (recorded)";
    "hotpath e1.ded_type2req: <= committed +25% (or within 50)";
    "hotpath e1.ded_load_membrane: <= committed +25% (or within 50)";
    "hotpath e1.ded_filter: <= committed +25% (or within 50)";
    "hotpath e1.ded_load_data: <= committed +25% (or within 50)";
    "hotpath e1.ded_execute: <= committed +25% (or within 50)";
    "hotpath e1.ded_build_membrane+store: <= committed +25% (or within 50)";
    "hotpath e1.ded_return: <= committed +25% (or within 50)";
    "hotpath reduction.load_stages: >= 30";
    "hotpath merge_ratio_per_subject: >= committed -25%";
    "hotpath e4.rows: >= 1";
    "hotpath e4.sim_us_max: (recorded)";
    "scale speedup_4_domains: >= 2.5; >= committed -25%";
    "scale min_domains: >= 1";
    "scale min_sim_critical_ns: > 0";
    "scale ded_execute_reduction: > 0";
    "index speedup_1pct: >= 10; >= committed -25%";
    "index ttl_speedup_largest: >= 2";
    "index min_select_sim_ns: >= 0";
    "model conformance_pct: >= 100";
    "model scripts: > 0";
    "model ops_checked: > 0";
    "model fault_points: > 0";
    "model crash_runs: > 0";
    "model crash_configs: = 18";
    "model crash_runs_per_config: >= 1";
    "model lin_domains_1_2_4: = 1";
    "model sweep_points: > 0";
    "model sweep_uncovered_writes: = 0";
    "model failures: = 0";
    "model all_pass: = 1";
    "model cache_budgets: = 3";
    "model cache_budget.0: = 1";
    "model cache_budget.1: = 7";
    "model cache_budget.2: = 65536";
    "mount populations: >= 2";
    "mount min_subjects: > 0";
    "mount min_mount_reads: > 0";
    "mount read_ratio: <= 2; <= committed +25%";
    "mount zipf.budget_headroom: >= 0";
    "mount zipf.evictions: > 0";
    "mount zipf.ops_ok: = 1";
    "segment subjects: >= 10000";
    "segment baseline.write_amp: > 0";
    "segment segmented.write_amp: > 0";
    "segment segmented.batches: > 0";
    "segment baseline.residue_clean: = 1";
    "segment segmented.residue_clean: = 1";
    "segment amp_ratio: >= 2";
    "segment ingest_ratio: > 1";
    "segment segmented.ingest_mb_s: >= committed -25%";
    "sla fifo.art15_count: > 0";
    "sla edf.art15_count: > 0";
    "sla art15_count_difference: = 0";
    "sla edf.preemptions: > 0";
    "sla fifo.preemptions: = 0";
    "sla edf.art15_misses: = 0";
    "sla edf.deadline_misses: = 0";
    "sla storm.requests: > 0";
    "sla storm.misses: = 0";
    "sla breach.affected: > 0";
    "sla breach.met: = 1";
    "sla missing_counters: = 0";
    "sla art15_p99_improvement: >= 5";
    "async sizes: > 0";
    "async invariant_broken_sizes: = 0";
    "async sizes_without_depth_4: = 0";
    "async best_load_speedup: >= 1.8";
    "async best_overlap_pct: >= 40";
  ]

let test_pinned_gates () =
  let declared =
    List.concat_map
      (fun s ->
        List.map
          (fun (name, _, gates) ->
            Printf.sprintf "%s %s: %s" (BR.name s) name
              (if gates = [] then "(recorded)"
               else String.concat "; " (List.map BR.describe gates)))
          (BR.declared s))
      S.all
  in
  Alcotest.(check (list string)) "declared gates" pinned_gates declared

(* ------------------------------------------------------------------ *)
(* per-gate tests, generated from the registry                        *)

let nudge x = Float.max 1e-9 (Float.abs x *. 1e-9)

(* [fails what lines]: the gate must fire and name its metric *)
let expect_fail name what lines =
  if not (List.exists (fun l -> contains l name) lines) then
    Alcotest.failf "%s: %s not caught (%s)" name what (String.concat "; " lines)

let expect_pass name what lines =
  if lines <> [] then
    Alcotest.failf "%s: %s rejected: %s" name what (String.concat "; " lines)

let gate_case s name gate () =
  let r = committed s in
  let validate v = BR.validate s (with_value r name v) in
  match gate with
  | BR.Bar (cmp, bar) ->
      let past =
        match cmp with Ge | Gt -> bar -. nudge bar | Le | Lt -> bar +. nudge bar
      in
      expect_fail name "just past the bar" (validate past);
      (* the committed artifact is held to the same bar as the fresh run *)
      expect_fail name "committed just past the bar"
        (BR.compare s ~committed:(with_value r name past) ~fresh:r);
      let on_bar = validate bar in
      (match cmp with
      | Ge | Le -> expect_pass name "exactly on an inclusive bar" on_bar
      | Gt | Lt -> expect_fail name "exactly on a strict bar" on_bar)
  | Exact x ->
      expect_fail name "above the exact value" (validate (x +. nudge x));
      expect_fail name "below the exact value" (validate (x -. nudge x));
      expect_pass name "the exact value" (validate x)
  | Rel { better; tol; slack } ->
      let old = List.assoc name r.values in
      let limit, past =
        match better with
        | Higher ->
            let l = Float.min (old *. (1.0 -. tol)) (old -. slack) in
            (l, l -. nudge l)
        | Lower ->
            let l = Float.max (old *. (1.0 +. tol)) (old +. slack) in
            (l, l +. nudge l)
      in
      let compare v = BR.compare s ~committed:r ~fresh:(with_value r name v) in
      expect_fail name "just past the committed tolerance" (compare past);
      expect_pass name "exactly on the committed tolerance" (compare limit)

let gate_tests =
  List.map
    (fun s ->
      ( "gates-" ^ BR.name s,
        List.concat_map
          (fun (name, _, gates) ->
            List.map
              (fun g ->
                Alcotest.test_case
                  (name ^ " " ^ BR.describe g)
                  `Quick (gate_case s name g))
              gates)
          (BR.declared s) ))
    S.all

let () =
  Alcotest.run "bench-report"
    ([
       ( "json",
         [
           Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
           Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
           Alcotest.test_case "accessors" `Quick test_json_accessors;
         ] );
       ( "report",
         [
           Alcotest.test_case "valid and parses back" `Quick
             test_report_valid_and_parses_back;
           Alcotest.test_case "rejects bad shapes" `Quick
             test_report_rejects_bad_shapes;
           Alcotest.test_case "committed artifact" `Quick test_committed_hotpath;
         ] );
       ( "registry",
         [
           Alcotest.test_case "every committed artifact validates" `Quick
             test_every_artifact_validates;
           Alcotest.test_case "every root artifact has a section" `Quick
             test_every_root_artifact_has_a_section;
           Alcotest.test_case "missing artifact fails by name" `Quick
             test_missing_artifact_fails;
           Alcotest.test_case "unparseable artifact prints the error" `Quick
             test_unparseable_artifact_fails;
           Alcotest.test_case "vanished metric fails" `Quick
             test_vanished_metric_fails;
           Alcotest.test_case "gate inventory is pinned" `Quick test_pinned_gates;
         ] );
     ]
    @ gate_tests)
