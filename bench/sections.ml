(* The eight gated bench sections.  Each one declares, once, how to run it,
   how to render it, which rows its artifact keeps for readers, and the
   metrics that gate it (see Rgpdos_workload.Bench_report).  The harness
   and the test suite both read this list: the tests doctor every gate
   declared here against the committed artifact. *)

open Bechamel
open Toolkit
module BR = Rgpdos_workload.Bench_report
module Json = Rgpdos_util.Json
module Table = Rgpdos_util.Table
module E = Rgpdos_workload.Experiments
module Prng = Rgpdos_util.Prng
module Clock = Rgpdos_util.Clock
module Bignum = Rgpdos_crypto.Bignum
module Sha256 = Rgpdos_crypto.Sha256
module Chacha20 = Rgpdos_crypto.Chacha20
module Rsa = Rgpdos_crypto.Rsa
module Envelope = Rgpdos_crypto.Envelope
module Membrane = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Audit_log = Rgpdos_audit.Audit_log
module SB = Rgpdos_workload.Shard_bench
module MB = Rgpdos_workload.Mount_bench
module RF = Rgpdos_model.Refine
module SG = Rgpdos_workload.Segment_bench
module SLA = Rgpdos_workload.Sla_bench
module AB = Rgpdos_workload.Async_bench
module Block_device = Rgpdos_block.Block_device

(* ------------------------------------------------------------------ *)
(* declaration helpers                                                *)

let metric ?(unit = "count") name gates value = { BR.name; unit; gates; value }
let ge b = BR.Bar (BR.Ge, b)
let gt b = BR.Bar (BR.Gt, b)
let le b = BR.Bar (BR.Le, b)
let exact x = BR.Exact x

(* a fresh run may fall at most 25% behind the committed artifact *)
let not_below_committed = BR.Rel { better = BR.Higher; tol = 0.25; slack = 0.0 }
let not_above_committed = BR.Rel { better = BR.Lower; tol = 0.25; slack = 0.0 }
let flag b = if b then 1.0 else 0.0
let count l = float_of_int (List.length l)

(* NaN for an empty list, so an absent row fails its gate *)
let minimum = function [] -> Float.nan | x :: xs -> List.fold_left Float.min x xs
let maximum = function [] -> Float.nan | x :: xs -> List.fold_left Float.max x xs
let num f = Json.Num f
let int n = Json.Num (float_of_int n)
let counters kvs = Json.Obj (List.map (fun (k, v) -> (k, int v)) kvs)
let stage_of r name = Option.value ~default:0 (List.assoc_opt name r.E.e1_stage_ns)

let pct_reduction ~before ~after =
  if before <= 0 then 0.0
  else 100.0 *. float_of_int (before - after) /. float_of_int before

(* blocks read per charged seek: what vectored run-merging pushes above 1 *)
let merge_ratio r =
  let get k = Option.value ~default:0 (List.assoc_opt k r.E.e1_device) in
  if get "merged_runs" = 0 then 1.0
  else float_of_int (get "reads") /. float_of_int (get "merged_runs")

let e1_json (r : E.e1_result) =
  Json.Obj
    [
      ("subjects", int r.E.e1_subjects);
      ("stage_ns", counters r.E.e1_stage_ns);
      ("total_sim_ns", int r.E.e1_total_ns);
      ("device", counters r.E.e1_device);
      ("merge_ratio", num (merge_ratio r));
    ]

(* ------------------------------------------------------------------ *)
(* hotpath: bechamel micro-benchmarks + E1 + E4                       *)

type fixture = {
  prng : Prng.t;
  kib : string;
  key32 : string;
  nonce12 : string;
  keypair : Rsa.keypair;
  envelope : Envelope.t;
  membrane : Membrane.t;
  membrane_bytes : string;
  record : Record.t;
  record_bytes : string;
  log : Audit_log.t;
}

let fixture () =
  let prng = Prng.create ~seed:1L () in
  let kib = Prng.bytes prng 1024 in
  let key32 = Prng.bytes prng 32 in
  let nonce12 = Prng.bytes prng 12 in
  let keypair = Rsa.generate ~bits:256 (Prng.create ~seed:2L ()) in
  let membrane =
    Membrane.make ~pd_id:"pd-1" ~type_name:"user" ~subject_id:"sub-1"
      ~origin:Membrane.Subject
      ~consents:
        [ ("service", Membrane.All); ("analytics", Membrane.View "v_ano");
          ("marketing", Membrane.Denied) ]
      ~created_at:0 ~ttl:Clock.year ~sensitivity:Membrane.High ()
  in
  let record : Record.t =
    [
      ("name", Value.VString "Chiraz Benamor");
      ("email", Value.VString "chiraz@example.test");
      ("year_of_birth", Value.VInt 1992);
    ]
  in
  let log = Audit_log.create () in
  for i = 0 to 999 do
    ignore
      (Audit_log.append log ~now:i ~actor:"ded"
         (Audit_log.Processed { purpose = "p"; inputs = [ "pd-1" ]; produced = [] }))
  done;
  {
    prng; kib; key32; nonce12; keypair;
    envelope = Envelope.seal prng keypair.Rsa.public kib;
    membrane; membrane_bytes = Membrane.encode membrane;
    record; record_bytes = Record.encode record; log;
  }

let base = Bignum.of_string "1234567890123456789012345678901234567890"
let exponent = Bignum.of_string "65537"

let modulus =
  Bignum.of_string "99999999999999999999999999999999999999999999999999999977"

let micro_cases : (string * (fixture -> unit -> unit)) list =
  [
    ("sha256/1KiB", fun f () -> ignore (Sha256.digest f.kib));
    ("hmac-sha256/1KiB", fun f () -> ignore (Sha256.hmac ~key:f.key32 f.kib));
    ( "chacha20/1KiB",
      fun f () -> ignore (Chacha20.encrypt ~key:f.key32 ~nonce:f.nonce12 f.kib) );
    ( "bignum/modpow-190bit",
      fun _ () -> ignore (Bignum.mod_pow base exponent modulus) );
    ( "envelope/seal-1KiB",
      fun f () -> ignore (Envelope.seal f.prng f.keypair.Rsa.public f.kib) );
    ( "envelope/open-1KiB",
      fun f () -> ignore (Envelope.open_ f.keypair.Rsa.private_ f.envelope) );
    ("membrane/encode", fun f () -> ignore (Membrane.encode f.membrane));
    ("membrane/decode", fun f () -> ignore (Membrane.decode f.membrane_bytes));
    ( "membrane/decide",
      fun f () ->
        ignore (Membrane.decide f.membrane ~purpose:"analytics" ~now:1000) );
    ("record/encode", fun f () -> ignore (Record.encode f.record));
    ("record/decode", fun f () -> ignore (Record.decode f.record_bytes));
    ( "audit/append",
      fun f () ->
        ignore
          (Audit_log.append f.log ~now:0 ~actor:"ded"
             (Audit_log.Erased { pd_id = "pd-1"; mode = "crypto" })) );
  ]

(* host wall ns/op and r^2 per case, by OLS over bechamel's samples;
   the ~0.3 s quota per case is the same at any scale *)
let run_micro () =
  let f = fixture () in
  let tests =
    Test.make_grouped ~name:"core"
      (List.map
         (fun (name, fn) -> Test.make ~name (Staged.stage (fn f)))
         micro_cases)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun (name, _) ->
      match Hashtbl.find_opt results ("core/" ^ name) with
      | None -> (name, Float.nan, Float.nan)
      | Some r ->
          let est =
            match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> Float.nan
          in
          (name, est, Option.value ~default:Float.nan (Analyze.OLS.r_square r)))
    micro_cases

type hotpath = {
  micro : (string * float * float) list;
  e1 : E.e1_result;
  e4 : E.e4_row list;
}

(* the DED pipeline's stages, in order; a stage missing from a run
   fails its gate *)
let e1_stages =
  [
    "ded_type2req"; "ded_load_membrane"; "ded_filter"; "ded_load_data";
    "ded_execute"; "ded_build_membrane+store"; "ded_return";
  ]

let load_stages = [ "ded_load_membrane"; "ded_load_data" ]

(* The vectored cost model's win on the load stages, from the run's own
   counters: merging [reads] blocks into [merged_runs] seeks saved
   [(reads - merged_runs) * read_latency], as a share of what the load
   stages would cost with one seek per block. *)
let load_stage_reduction (r : E.e1_result) =
  let get k = Option.value ~default:0 (List.assoc_opt k r.E.e1_device) in
  let load = List.fold_left (fun acc s -> acc + stage_of r s) 0 load_stages in
  let saved =
    (get "reads" - get "merged_runs")
    * Block_device.default_config.Block_device.read_latency
  in
  pct_reduction ~before:(load + saved) ~after:load

let hotpath =
  {
    BR.name = "hotpath";
    title = "HOTPATH — micro-benchmarks, E1 DED pipeline, E4 right of access";
    artifact = "BENCH_hotpath.json";
    run =
      (fun ~quick ->
        let d full small = if quick then small else full in
        {
          micro = run_micro ();
          e1 = E.e1_ded_stages ~subjects:(d 2_000 200) ();
          e4 =
            E.e4_access
              ~records_per_subject:(d [ 1; 10; 50; 200; 1_000 ] [ 1; 10; 50 ])
              ();
        });
    render =
      (fun h ->
        Table.render ~align:Table.[ Left; Right; Right ]
          ~header:[ "benchmark"; "wall ns/op"; "r^2" ]
          (List.map
             (fun (n, ns, r2) ->
               [ n; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ])
             h.micro)
        ^ "\nE1 — DED pipeline breakdown\n" ^ E.render_e1 h.e1
        ^ "\nE4 — right of access latency\n" ^ E.render_e4 h.e4);
    detail =
      (fun h ->
        Json.Obj
          [
            ( "micro",
              Json.List
                (List.map
                   (fun (n, ns, r2) ->
                     Json.Obj
                       [
                         ("name", Json.Str n); ("ns_per_op", num ns); ("r2", num r2);
                       ])
                   h.micro) );
            ("e1", e1_json h.e1);
            ( "e4",
              Json.List
                (List.map
                   (fun (r : E.e4_row) ->
                     Json.Obj
                       [
                         ("records_per_subject", int r.E.e4_records_per_subject);
                         ("sim_us", num r.E.e4_sim_us);
                         ("export_complete", Json.Bool r.E.e4_export_complete);
                       ])
                   h.e4) );
          ]);
    metrics =
      List.map
        (fun (name, _) ->
          metric ~unit:"ns/op" ("micro." ^ name) [ gt 0.0 ] (fun h ->
              List.fold_left
                (fun acc (n, ns, _) -> if n = name then ns else acc)
                Float.nan h.micro))
        micro_cases
      @ [
          metric ~unit:"sim-ns" "e1.total_sim_ns" [] (fun h ->
              float_of_int h.e1.E.e1_total_ns);
        ]
      (* per subject: a --quick run is gated against a committed run that
         may be at another scale; the 50 ns slack keeps the fixed-cost
         stages (ded_type2req, ded_return) from tripping on scale alone *)
      @ List.map
          (fun stage ->
            metric ~unit:"sim-ns/subject" ("e1." ^ stage)
              [ BR.Rel { better = BR.Lower; tol = 0.25; slack = 50.0 } ]
              (fun h ->
                match List.assoc_opt stage h.e1.E.e1_stage_ns with
                | Some ns -> float_of_int ns /. float_of_int h.e1.E.e1_subjects
                | None -> Float.nan))
          e1_stages
      @ [
          metric ~unit:"%" "reduction.load_stages" [ ge 30.0 ] (fun h ->
              load_stage_reduction h.e1);
          (* the merge ratio grows with the dataset (a bigger table is a
             longer contiguous extent), so it is gated per subject *)
          metric ~unit:"blocks/seek/subject" "merge_ratio_per_subject"
            [ not_below_committed ]
            (fun h -> merge_ratio h.e1 /. float_of_int (max 1 h.e1.E.e1_subjects));
          metric "e4.rows" [ ge 1.0 ] (fun h -> count h.e4);
          metric ~unit:"sim-us" "e4.sim_us_max" [] (fun h ->
              maximum (List.map (fun (r : E.e4_row) -> r.E.e4_sim_us) h.e4));
        ];
  }

(* ------------------------------------------------------------------ *)
(* scale: sharded GDPRBench domains sweep + parallel ded_execute      *)

type scale = {
  sc_subjects : int;
  sc_ops : int;
  sc_runs : SB.report list;  (** 1/2/4/8 domains *)
  sc_e1_cores : int;
  sc_e1_seq : E.e1_result;
  sc_e1_par : E.e1_result;
}

let scale =
  let speedup s r = SB.speedup ~baseline:(List.hd s.sc_runs) r in
  let exec_reduction s =
    pct_reduction
      ~before:(stage_of s.sc_e1_seq "ded_execute")
      ~after:(stage_of s.sc_e1_par "ded_execute")
  in
  let rows s f = List.map f s.sc_runs in
  {
    BR.name = "scale";
    title = "SCALE — sharded GDPRBench domains sweep (processor-role mix)";
    artifact = "BENCH_parallel_scale.json";
    run =
      (fun ~quick ->
        let d full small = if quick then small else full in
        let subjects = d 800 240 and total_ops = d 400 120 in
        let e1_subjects = d 2_000 200 in
        {
          sc_subjects = subjects;
          sc_ops = total_ops;
          sc_runs =
            Rgpdos_util.Pool.with_pool (fun pool ->
                List.map
                  (fun shards ->
                    SB.run ~pool ~role:Rgpdos_workload.Gdprbench.Processor ~subjects
                      ~total_ops ~shards ())
                  [ 1; 2; 4; 8 ]);
          sc_e1_cores = Rgpdos_ded.Ded.location_cores Rgpdos_ded.Ded.Host;
          sc_e1_seq = E.e1_ded_stages ~subjects:e1_subjects ~cores:1 ();
          sc_e1_par = E.e1_ded_stages ~subjects:e1_subjects ();
        });
    render =
      (fun s ->
        let exec r = float_of_int (stage_of r "ded_execute") /. 1e6 in
        Table.render
          ~align:Table.[ Right; Right; Right; Right; Right; Right ]
          ~header:
            [
              "domains"; "sim critical ms"; "aggregate ms"; "kops/sim-s";
              "speedup"; "host wall s";
            ]
          (rows s (fun r ->
               [
                 string_of_int r.SB.shards;
                 Printf.sprintf "%.2f" (float_of_int r.SB.sim_critical_ns /. 1e6);
                 Printf.sprintf "%.2f" (float_of_int r.SB.sim_total_ns /. 1e6);
                 Printf.sprintf "%.1f" r.SB.kops_per_sim_s;
                 Printf.sprintf "%.2fx" (speedup s r);
                 Printf.sprintf "%.3f" r.SB.wall_seconds;
               ]))
        ^ Printf.sprintf
            "\nE1 ded_execute (%d subjects): sequential %.2f sim-ms -> %d-core \
             %.2f sim-ms (%.1f%% less)"
            s.sc_e1_par.E.e1_subjects (exec s.sc_e1_seq) s.sc_e1_cores
            (exec s.sc_e1_par) (exec_reduction s));
    detail =
      (fun s ->
        Json.Obj
          [
            ("role", Json.Str "processor");
            ("subjects", int s.sc_subjects);
            ("total_ops", int s.sc_ops);
            ( "scale",
              Json.List
                (rows s (fun r ->
                     Json.Obj
                       [
                         ("domains", int r.SB.shards);
                         ("sim_critical_ns", int r.SB.sim_critical_ns);
                         ("sim_total_ns", int r.SB.sim_total_ns);
                         ("kops_per_sim_s", num r.SB.kops_per_sim_s);
                         ("wall_s", num r.SB.wall_seconds);
                         ("speedup", num (speedup s r));
                       ])) );
            ( "e1_ded_execute",
              Json.Obj
                [
                  ("subjects", int s.sc_e1_par.E.e1_subjects);
                  ("cores", int s.sc_e1_cores);
                  ("sequential_ns", int (stage_of s.sc_e1_seq "ded_execute"));
                  ("parallel_ns", int (stage_of s.sc_e1_par "ded_execute"));
                ] );
          ]);
    metrics =
      [
        metric ~unit:"x" "speedup_4_domains" [ ge 2.5; not_below_committed ]
          (fun s ->
            match List.find_opt (fun r -> r.SB.shards = 4) s.sc_runs with
            | Some r -> speedup s r
            | None -> Float.nan);
        metric "min_domains" [ ge 1.0 ] (fun s ->
            minimum (rows s (fun r -> float_of_int r.SB.shards)));
        metric ~unit:"sim-ns" "min_sim_critical_ns" [ gt 0.0 ] (fun s ->
            minimum (rows s (fun r -> float_of_int r.SB.sim_critical_ns)));
        metric ~unit:"%" "ded_execute_reduction" [ gt 0.0 ] exec_reduction;
      ];
  }

(* ------------------------------------------------------------------ *)
(* index: secondary-index pushdown vs full scans, TTL sweeps          *)

(* the 1%-selectivity probe at the smallest population >= 2000: the
   configuration both a --quick run and the full-scale artifact hold,
   so the relative gate compares like with like *)
let speedup_1pct (r : E.eidx_result) =
  List.fold_left
    (fun best (row : E.eidx_select_row) ->
      if row.E.eidx_selectivity_pct = 1.0 && row.E.eidx_population >= 2_000 then
        match best with
        | Some (bp, _) when bp <= row.E.eidx_population -> best
        | _ -> Some (row.E.eidx_population, row.E.eidx_speedup)
      else best)
    None r.E.eidx_select
  |> Option.fold ~none:Float.nan ~some:snd

let index =
  {
    BR.name = "index";
    title = "INDEX — secondary-index pushdown vs full-type scans";
    artifact = "BENCH_index_select.json";
    run =
      (fun ~quick ->
        let d full small = if quick then small else full in
        E.e_index
          ~sizes:(d [ 500; 2_000; 8_000 ] [ 500; 2_000 ])
          ~ttl_sizes:(d [ 500; 2_000; 4_000 ] [ 200; 500 ])
          ());
    render = E.render_e_index;
    detail =
      (fun r ->
        Json.Obj
          [
            ( "select",
              Json.List
                (List.map
                   (fun (row : E.eidx_select_row) ->
                     Json.Obj
                       [
                         ("population", int row.E.eidx_population);
                         ("probe", Json.Str row.E.eidx_probe);
                         ("selectivity_pct", num row.E.eidx_selectivity_pct);
                         ("matches", int row.E.eidx_matches);
                         ("scan_sim_ns", int row.E.eidx_scan_ns);
                         ("index_sim_ns", int row.E.eidx_index_ns);
                         ("speedup", num row.E.eidx_speedup);
                       ])
                   r.E.eidx_select) );
            ( "ttl",
              Json.List
                (List.map
                   (fun (row : E.eidx_ttl_row) ->
                     Json.Obj
                       [
                         ("population", int row.E.eidx_ttl_population);
                         ("expired", int row.E.eidx_ttl_expired);
                         ("full_sim_ns", int row.E.eidx_ttl_full_ns);
                         ("incremental_sim_ns", int row.E.eidx_ttl_incr_ns);
                         ("speedup", num row.E.eidx_ttl_speedup);
                       ])
                   r.E.eidx_ttl) );
          ]);
    metrics =
      [
        metric ~unit:"x" "speedup_1pct" [ ge 10.0; not_below_committed ]
          speedup_1pct;
        (* the expiry-queue sweep vs the full membrane scan, at the
           largest aged population *)
        metric ~unit:"x" "ttl_speedup_largest" [ ge 2.0 ] (fun r ->
            List.fold_left
              (fun (bp, s) (row : E.eidx_ttl_row) ->
                if row.E.eidx_ttl_population >= bp then
                  (row.E.eidx_ttl_population, row.E.eidx_ttl_speedup)
                else (bp, s))
              (min_int, Float.nan) r.E.eidx_ttl
            |> snd);
        metric ~unit:"sim-ns" "min_select_sim_ns" [ ge 0.0 ] (fun r ->
            minimum
              (List.concat_map
                 (fun (row : E.eidx_select_row) ->
                   [
                     float_of_int row.E.eidx_scan_ns;
                     float_of_int row.E.eidx_index_ns;
                   ])
                 r.E.eidx_select));
      ];
  }

(* ------------------------------------------------------------------ *)
(* model: executable GDPR model refinement                            *)

let model =
  {
    BR.name = "model";
    title = "MODEL — executable GDPR model refinement (lockstep / crash / \
             crash sweeps / linearizability / coherence)";
    artifact = "BENCH_model_check.json";
    (* deterministic in the seed; QCHECK_COUNT, when set, fixes the script
       budget, otherwise --quick trims it *)
    run =
      (fun ~quick ->
        let scripts =
          if quick && Sys.getenv_opt "QCHECK_COUNT" = None then Some 2 else None
        in
        RF.run ?scripts ());
    render = RF.render;
    detail = RF.to_json;
    metrics =
      [
        (* refinement is absolute: any divergence is a bug on one side *)
        metric ~unit:"%" "conformance_pct" [ ge 100.0 ] RF.conformance_pct;
        metric "scripts" [ gt 0.0 ] (fun r -> float_of_int r.RF.r_scripts);
        metric "ops_checked" [ gt 0.0 ] (fun r -> float_of_int r.RF.r_ops_checked);
        metric "fault_points" [ gt 0.0 ] (fun r -> float_of_int r.RF.r_fault_points);
        metric "crash_runs" [ gt 0.0 ] (fun r -> float_of_int r.RF.r_crash_runs);
        metric "crash_configs" [ exact (count RF.all_cfgs) ] (fun _ ->
            count RF.all_cfgs);
        metric ~unit:"runs/config" "crash_runs_per_config" [ ge 1.0 ] (fun r ->
            float_of_int r.RF.r_crash_runs /. count RF.all_cfgs);
        metric ~unit:"flag" "lin_domains_1_2_4" [ exact 1.0 ] (fun r ->
            flag (r.RF.r_lin_domains = [ 1; 2; 4 ]));
        (* the crash sweeps: every write of each fixed script crashed
           after exactly once *)
        metric "sweep_points" [ gt 0.0 ] (fun r ->
            float_of_int (RF.sweep_points r.RF.r_sweeps));
        metric "sweep_uncovered_writes" [ exact 0.0 ] (fun r ->
            float_of_int (RF.uncovered_writes r.RF.r_sweeps));
        metric "failures" [ exact 0.0 ] (fun r -> count r.RF.r_failures);
        metric ~unit:"flag" "all_pass" [ exact 1.0 ] (fun r -> flag (RF.all_pass r));
        (* the coherence audit's budgets, pinned so that an artifact from
           another budget list fails *)
        metric "cache_budgets" [ exact (count RF.budgets) ] (fun _ -> count RF.budgets);
      ]
      @ List.mapi
          (fun i b ->
            let b = float_of_int b in
            metric ~unit:"entries" (Printf.sprintf "cache_budget.%d" i) [ exact b ]
              (fun _ -> b))
          RF.budgets;
  }

(* ------------------------------------------------------------------ *)
(* mount: clean-mount reads vs population + bounded-cache Zipf        *)

let mount =
  let rows r f = List.map (fun row -> float_of_int (f row)) r.MB.mb_rows in
  {
    BR.name = "mount";
    title = "MOUNT — paged-index mount scaling + bounded-cache Zipf workload";
    artifact = "BENCH_mount_scale.json";
    (* full scale builds 10^6 subjects: allow ~6 min and ~20 GB of RAM *)
    run =
      (fun ~quick ->
        if quick then
          MB.run ~sizes:[ 1_000; 4_000; 10_000 ] ~ops:1_000 ~budget:512 ()
        else
          MB.run
            ~sizes:[ 1_000; 10_000; 100_000; 1_000_000 ]
            ~ops:20_000 ~budget:4_096 ());
    render = MB.render;
    detail =
      (fun r ->
        let z = r.MB.mb_zipf in
        Json.Obj
          [
            ( "mount",
              Json.List
                (List.map
                   (fun (row : MB.mount_row) ->
                     Json.Obj
                       [
                         ("subjects", int row.MB.mb_subjects);
                         ("build_sim_ms", num row.MB.mb_build_sim_ms);
                         ("mount_reads", int row.MB.mb_mount_reads);
                         ("mount_sim_us", num row.MB.mb_mount_sim_us);
                         ( "resident_after_mount",
                           int row.MB.mb_resident_after_mount );
                         ("index_pages", int row.MB.mb_index_pages);
                       ])
                   r.MB.mb_rows) );
            ( "zipf",
              Json.Obj
                [
                  ("subjects", int z.MB.zb_subjects);
                  ("ops", int z.MB.zb_ops);
                  ("budget", int z.MB.zb_budget);
                  ("resident_max", int z.MB.zb_resident_max);
                  ("hits", int z.MB.zb_hits);
                  ("misses", int z.MB.zb_misses);
                  ("evictions", int z.MB.zb_evictions);
                  ("page_reads", int z.MB.zb_page_reads);
                  ("sim_ms", num z.MB.zb_sim_ms);
                  ("ops_ok", Json.Bool z.MB.zb_ops_ok);
                ] );
          ]);
    metrics =
      [
        (* O(1) recovery needs at least two populations to be a claim *)
        metric "populations" [ ge 2.0 ] (fun r -> count r.MB.mb_rows);
        metric "min_subjects" [ gt 0.0 ] (fun r ->
            minimum (rows r (fun x -> x.MB.mb_subjects)));
        metric "min_mount_reads" [ gt 0.0 ] (fun r ->
            minimum (rows r (fun x -> x.MB.mb_mount_reads)));
        (* max/min clean-mount reads across populations *)
        metric ~unit:"x" "read_ratio" [ le 2.0; not_above_committed ] MB.read_ratio;
        metric ~unit:"entries" "zipf.budget_headroom" [ ge 0.0 ] (fun r ->
            let z = r.MB.mb_zipf in
            float_of_int (z.MB.zb_budget - z.MB.zb_resident_max));
        (* the budget must bind, or the headroom claim is vacuous *)
        metric "zipf.evictions" [ gt 0.0 ] (fun r ->
            float_of_int r.MB.mb_zipf.MB.zb_evictions);
        metric ~unit:"flag" "zipf.ops_ok" [ exact 1.0 ] (fun r ->
            flag r.MB.mb_zipf.MB.zb_ops_ok);
      ];
  }

(* ------------------------------------------------------------------ *)
(* segment: update-in-place vs log-structured segments                *)

let segment_side (s : SG.side) =
  Json.Obj
    [
      ("label", Json.Str s.SG.sg_label);
      ("subjects", int s.SG.sg_subjects);
      ("updates", int s.SG.sg_updates);
      ("erasures", int s.SG.sg_erasures);
      ("deletes", int s.SG.sg_deletes);
      ("window", int s.SG.sg_window);
      ("logical_bytes", int s.SG.sg_logical_bytes);
      ("blocks_written", int s.SG.sg_blocks_written);
      ("bytes_written", int s.SG.sg_bytes_written);
      ("trims", int s.SG.sg_trims);
      ("write_amp", num s.SG.sg_write_amp);
      ("ingest_mb_s", num s.SG.sg_ingest_mb_s);
      ("sim_ms", num s.SG.sg_sim_ms);
      ("batches", int s.SG.sg_batches);
      ("batched_ops", int s.SG.sg_batched_ops);
      ("compactions", int s.SG.sg_compactions);
      ("relocations", int s.SG.sg_relocations);
      ("segments_reclaimed", int s.SG.sg_segments_reclaimed);
      ("backpressure_stalls", int s.SG.sg_backpressure_stalls);
      ("residue_clean", Json.Bool s.SG.sg_residue_clean);
    ]

let segment =
  let base r = r.SG.sr_baseline and seg r = r.SG.sr_segmented in
  {
    BR.name = "segment";
    title = "SEGMENT — update-in-place vs log-structured segments (A/B)";
    artifact = "BENCH_segment_io.json";
    (* virtual-clock deterministic; the >= 10^4-subject claim needs the
       default size at either scale *)
    run = (fun ~quick:_ -> SG.run ());
    render = SG.render;
    detail =
      (fun r ->
        Json.Obj
          [
            ("baseline", segment_side (base r));
            ("segmented", segment_side (seg r));
          ]);
    metrics =
      [
        metric "subjects" [ ge 10_000.0 ] (fun r ->
            float_of_int (seg r).SG.sg_subjects);
        metric ~unit:"ratio" "baseline.write_amp" [ gt 0.0 ] (fun r ->
            (base r).SG.sg_write_amp);
        metric ~unit:"ratio" "segmented.write_amp" [ gt 0.0 ] (fun r ->
            (seg r).SG.sg_write_amp);
        (* group commit must have engaged *)
        metric "segmented.batches" [ gt 0.0 ] (fun r ->
            float_of_int (seg r).SG.sg_batches);
        (* a layout change does not get to trade forensic hygiene for speed *)
        metric ~unit:"flag" "baseline.residue_clean" [ exact 1.0 ] (fun r ->
            flag (base r).SG.sg_residue_clean);
        metric ~unit:"flag" "segmented.residue_clean" [ exact 1.0 ] (fun r ->
            flag (seg r).SG.sg_residue_clean);
        metric ~unit:"x" "amp_ratio" [ ge 2.0 ] (fun r -> r.SG.sr_amp_ratio);
        metric ~unit:"x" "ingest_ratio" [ gt 1.0 ] (fun r -> r.SG.sr_ingest_ratio);
        metric ~unit:"MB/sim-s" "segmented.ingest_mb_s" [ not_below_committed ]
          (fun r -> (seg r).SG.sg_ingest_mb_s);
      ];
  }

(* ------------------------------------------------------------------ *)
(* sla: rights latency under saturating load, FIFO vs EDF             *)

let sla_side (s : SLA.side) =
  Json.Obj
    [
      ("policy", Json.Str s.SLA.sd_policy);
      ("batch_jobs", int s.SLA.sd_batch_jobs);
      ("batch_errors", int s.SLA.sd_batch_errors);
      ("sim_ns", int s.SLA.sd_sim_ns);
      ("wall_s", num s.SLA.sd_wall_s);
      ("counters", counters s.SLA.sd_counters);
      ( "rights",
        Json.List
          (List.map
             (fun (rs : SLA.right_stats) ->
               Json.Obj
                 [
                   ("label", Json.Str rs.SLA.rs_label);
                   ("count", int rs.SLA.rs_count);
                   ("errors", int rs.SLA.rs_errors);
                   ("p50_ns", int rs.SLA.rs_p50_ns);
                   ("p99_ns", int rs.SLA.rs_p99_ns);
                   ("max_ns", int rs.SLA.rs_max_ns);
                   ("misses", int rs.SLA.rs_misses);
                   ("deadline_ns", int rs.SLA.rs_deadline_ns);
                 ])
             s.SLA.sd_rights) );
    ]

let sla =
  let art15 side f =
    match List.find_opt (fun rs -> rs.SLA.rs_label = "art15") side.SLA.sd_rights with
    | Some rs -> float_of_int (f rs)
    | None -> Float.nan
  in
  let counter side name =
    match List.assoc_opt name side.SLA.sd_counters with
    | Some v -> float_of_int v
    | None -> Float.nan
  in
  let art15_count side = art15 side (fun rs -> rs.SLA.rs_count) in
  let fifo r = r.SLA.r_fifo and edf r = r.SLA.r_edf in
  {
    BR.name = "sla";
    title = "SLA — rights latency under saturating load (FIFO vs EDF)";
    artifact = "BENCH_rights_sla.json";
    run =
      (fun ~quick ->
        if quick then SLA.run ~subjects:600 ~batches:12 ()
        else SLA.run ~subjects:2_000 ~batches:30 ());
    render = SLA.render;
    detail =
      (fun r ->
        let st = r.SLA.r_storm and bn = r.SLA.r_breach in
        Json.Obj
          [
            ("subjects", int r.SLA.r_subjects);
            ("domains", int r.SLA.r_domains);
            ("seed", num (Int64.to_float r.SLA.r_seed));
            ("batches", int r.SLA.r_batches);
            ("batch_every_ns", int r.SLA.r_batch_every_ns);
            ("fifo", sla_side (fifo r));
            ("edf", sla_side (edf r));
            ( "improvement",
              Json.Obj (List.map (fun (k, v) -> (k, num v)) r.SLA.r_improvement) );
            ( "storm",
              Json.Obj
                [
                  ("requests", int st.SLA.st_requests);
                  ("p50_ns", int st.SLA.st_p50_ns);
                  ("p99_ns", int st.SLA.st_p99_ns);
                  ("misses", int st.SLA.st_misses);
                  ("drain_ns", int st.SLA.st_drain_ns);
                ] );
            ( "breach",
              Json.Obj
                [
                  ("affected", int bn.SLA.bn_affected);
                  ("entries", int bn.SLA.bn_entries);
                  ("latency_ns", int bn.SLA.bn_latency_ns);
                  ("deadline_ns", int bn.SLA.bn_deadline_ns);
                  ("met", Json.Bool bn.SLA.bn_met);
                ] );
          ]);
    metrics =
      [
        metric "fifo.art15_count" [ gt 0.0 ] (fun r -> art15_count (fifo r));
        metric "edf.art15_count" [ gt 0.0 ] (fun r -> art15_count (edf r));
        (* both sides replay one schedule, so they serve the same requests *)
        metric "art15_count_difference" [ exact 0.0 ] (fun r ->
            art15_count (edf r) -. art15_count (fifo r));
        (* the deadline lane must have engaged *)
        metric "edf.preemptions" [ gt 0.0 ] (fun r -> counter (edf r) "preemptions");
        metric "fifo.preemptions" [ exact 0.0 ] (fun r ->
            counter (fifo r) "preemptions");
        metric "edf.art15_misses" [ exact 0.0 ] (fun r ->
            art15 (edf r) (fun rs -> rs.SLA.rs_misses));
        metric "edf.deadline_misses" [ exact 0.0 ] (fun r ->
            counter (edf r) "deadline_misses");
        metric "storm.requests" [ gt 0.0 ] (fun r ->
            float_of_int r.SLA.r_storm.SLA.st_requests);
        metric "storm.misses" [ exact 0.0 ] (fun r ->
            float_of_int r.SLA.r_storm.SLA.st_misses);
        metric "breach.affected" [ gt 0.0 ] (fun r ->
            float_of_int r.SLA.r_breach.SLA.bn_affected);
        metric ~unit:"flag" "breach.met" [ exact 1.0 ] (fun r ->
            flag r.SLA.r_breach.SLA.bn_met);
        metric "missing_counters" [ exact 0.0 ] (fun r ->
            count
              (List.concat_map
                 (fun side ->
                   List.filter
                     (fun n -> not (List.mem_assoc n side.SLA.sd_counters))
                     Rgpdos_kernel.Scheduler.counter_names)
                 [ fifo r; edf r ]));
        (* the improvement grows with the FIFO backlog, i.e. with scale,
           so it is held to the absolute bar on both sides, not to a
           fraction of the full-scale artifact *)
        metric ~unit:"x" "art15_p99_improvement" [ ge 5.0 ] (fun r ->
            Option.value ~default:Float.nan (SLA.improvement r "art15"));
      ];
  }

(* ------------------------------------------------------------------ *)
(* async: queue-depth sweep of the block-I/O path, E1                 *)

let async =
  {
    BR.name = "async";
    title = "ASYNC — queue-depth sweep (E1, depth 1 = synchronous device)";
    artifact = "BENCH_async_io.json";
    (* quick shrinks the populations but keeps the depth sweep, so the
       gated depth >= 4 rows exist either way *)
    run =
      (fun ~quick ->
        AB.run ~sizes:(if quick then [ 400; 1_000 ] else [ 2_000; 8_000 ]) ());
    render = AB.render;
    detail =
      (fun r ->
        let row (d : AB.depth_row) =
          Json.Obj
            [
              ("depth", int d.AB.ar_depth);
              ("total_ns", int d.AB.ar_total_ns);
              ("load_ns", int d.AB.ar_load_ns);
              ("load_speedup", num d.AB.ar_load_speedup);
              ("total_speedup", num d.AB.ar_total_speedup);
              ("overlap_pct", num d.AB.ar_overlap_pct);
              ("submits", int d.AB.ar_submits);
              ("highwater", int d.AB.ar_highwater);
            ]
        in
        Json.Obj
          [
            ("depths", Json.List (List.map int r.AB.a_depths));
            ( "sizes",
              Json.List
                (List.map
                   (fun (s : AB.size_run) ->
                     Json.Obj
                       [
                         ("subjects", int s.AB.as_subjects);
                         ("invariant_ok", Json.Bool s.AB.as_invariant_ok);
                         ("rows", Json.List (List.map row s.AB.as_rows));
                       ])
                   r.AB.a_sizes) );
          ]);
    metrics =
      [
        metric "sizes" [ gt 0.0 ] (fun r -> count r.AB.a_sizes);
        (* identical stages and byte-movement counters at every depth *)
        metric "invariant_broken_sizes" [ exact 0.0 ] (fun r ->
            count (List.filter (fun s -> not s.AB.as_invariant_ok) r.AB.a_sizes));
        metric "sizes_without_depth_4" [ exact 0.0 ] (fun r ->
            count
              (List.filter
                 (fun s ->
                   not (List.exists (fun d -> d.AB.ar_depth >= 4) s.AB.as_rows))
                 r.AB.a_sizes));
        (* overlap grows with batch size, so like the SLA figure these are
           absolute bars on both sides *)
        metric ~unit:"x" "best_load_speedup" [ ge 1.8 ] (fun r ->
            r.AB.a_best_load_speedup);
        metric ~unit:"%" "best_overlap_pct" [ ge 40.0 ] (fun r ->
            r.AB.a_best_overlap_pct);
      ];
  }

let all =
  BR.
    [
      Section hotpath; Section scale; Section index; Section model;
      Section mount; Section segment; Section sla; Section async;
    ]
