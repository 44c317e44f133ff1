(* The benchmark's own tests, on small configurations of the three
   workloads: determinism of the simulated results and per-layer counts,
   a second seed, the percentile rule, and the output oracle catching a
   doctored query count and a planted residue. *)

open Perfbench
module Machine = Rgpdos.Machine
module Block_device = Rgpdos_block.Block_device
module Ded = Rgpdos_ded.Ded
module Gdprbench = Rgpdos_workload.Gdprbench

(* Small populations, short mixes and a light probe keep these tests
   fast; [percentile_rule] restores the full probe. *)
let small workload =
  let c =
    { (Workload.config workload) with
      Workload.minimums =
        List.map (fun (kind, n) -> (kind, min n 12)) (Workload.probe_minimums ~verify:12) }
  in
  match workload with
  | Workload.Rights -> { c with Workload.subjects = 120; mix_ops = 400 }
  | Workload.Processing ->
      { c with Workload.subjects = 100; mix_ops = 60; cache_budget = Some 64 }

let name w = Workload.to_string w

let check_correct (r : Bench.run) =
  Alcotest.(check (list string)) "oracle failures" [] r.Bench.errors;
  Alcotest.(check int) "failed ops" 0 r.Bench.failed

let sims (r : Bench.run) =
  Array.to_list (Array.map (fun s -> s.Bench.sim_ns) r.Bench.samples)

let span_counts (r : Bench.run) =
  match r.Bench.trace with
  | None -> []
  | Some (t, _) ->
      List.map
        (fun s -> (s.Trace.layer ^ "." ^ s.Trace.name, Array.to_list s.Trace.counts))
        (Trace.spans t)

(* what the simulated metrics and write amplification are made of *)
let sim_totals (r : Bench.run) = [ r.Bench.bytes_written; r.Bench.bytes_collected; r.Bench.chain_end ]

let determinism w () =
  let c = small w in
  let a = Bench.execute ~traced:true c ~seed:7L in
  let b = Bench.execute ~traced:true c ~seed:7L in
  let u = Bench.execute c ~seed:7L in
  check_correct a;
  check_correct u;
  Alcotest.(check string) "same end state" a.Bench.fingerprint b.Bench.fingerprint;
  Alcotest.(check string) "traced ends as untraced" u.Bench.fingerprint a.Bench.fingerprint;
  Alcotest.(check (list int)) "same simulated latencies" (sims a) (sims b);
  Alcotest.(check (list int)) "untraced simulated latencies" (sims u) (sims a);
  Alcotest.(check (list int)) "same bytes and chain" (sim_totals a) (sim_totals b);
  Alcotest.(check (list (pair string (list int)))) "same per-layer counts"
    (span_counts a) (span_counts b)

let second_seed w () =
  let c = small w in
  let a = Bench.execute c ~seed:7L and b = Bench.execute c ~seed:99L in
  check_correct b;
  Alcotest.(check bool) "another op stream" true (a.Bench.stream <> b.Bench.stream)

let percentile_rule () =
  let a = Array.init 100 float_of_int in
  (* p90 of 0..99 is 89.1: ten samples lie beyond it *)
  Alcotest.(check int) "ten beyond p90" 10 (Metrics.beyond a 0.90);
  ignore (Metrics.tail ~what:"ok" a 0.90);
  let short = Array.init 90 float_of_int in
  Alcotest.check_raises "nine beyond p90 is refused"
    (Metrics.Too_few_samples "short: 90 samples, 9 beyond p90") (fun () ->
      ignore (Metrics.tail ~what:"short" short 0.90));
  (* and on a real run, every reported tail has ten samples beyond it *)
  let r =
    Bench.execute
      { (small Workload.Processing) with Workload.minimums = Workload.probe_minimums ~verify:11 }
      ~seed:7L
  in
  List.iter
    (fun kind ->
      let walls = Metrics.of_kind r kind (fun s -> s.Bench.wall_ms) in
      Alcotest.(check bool)
        (kind ^ " has ten samples beyond p90") true
        (Metrics.beyond walls 0.90 >= 10))
    [ "access"; "update_consent"; "purpose_query" ]

let doctored_query_count () =
  let doctored = ref false in
  let tamper op o =
    match (op, o) with
    | Gdprbench.Op_purpose_query _, Ledger.Queried q when not !doctored ->
        doctored := true;
        Ledger.Queried { q with Ded.consumed = q.Ded.consumed + 1 }
    | _ -> o
  in
  let r = Bench.execute ~tamper (small Workload.Processing) ~seed:7L in
  Alcotest.(check bool) "a query was doctored" true !doctored;
  Alcotest.(check bool) "run is incorrect" false (Bench.correct r);
  Alcotest.(check bool) "the query is named" true
    (List.exists (fun e -> Ledger.contains e "ledger says") r.Bench.errors)

let planted_residue () =
  let planted = ref "" in
  let before_oracle machine ledger =
    match Ledger.erased_emails ledger with
    | [] -> ()
    | email :: _ ->
        planted := email;
        (* as DBFS would store it: a u32 length, then the bytes, on the
           device's last block *)
        let dev = Machine.pd_device machine in
        let n = String.length email in
        let raw =
          String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ email
        in
        let last = (Block_device.config dev).Block_device.block_count - 1 in
        Block_device.write dev last raw
  in
  let r = Bench.execute ~before_oracle (small Workload.Rights) ~seed:7L in
  Alcotest.(check bool) "an erased subject exists" true (!planted <> "");
  Alcotest.(check bool) "run is incorrect" false (Bench.correct r);
  Alcotest.(check bool) "the residue is named" true
    (List.exists (fun e -> Ledger.contains e !planted) r.Bench.errors)

let residue_straddles_blocks () =
  let email = "kami.lorabe12@example.test" in
  let image = [| String.make 4090 'x' ^ "\000kami."; "lorabe12@example.test\000"; "" |] in
  Alcotest.(check (list string)) "found across a block boundary" [ email ]
    (Residue.scan image [ email ]);
  Alcotest.(check (list string)) "live emails are not residue" []
    (Residue.scan image [ "other1@example.test" ])

let () =
  let per_workload f label =
    List.map
      (fun w -> Alcotest.test_case (label ^ " " ^ name w) `Quick (f w))
      Workload.all
  in
  Alcotest.run "perfbench"
    [
      ("determinism", per_workload determinism "same seed, same results:");
      ("seeds", per_workload second_seed "second seed passes the oracle:");
      ("percentiles", [ Alcotest.test_case "ten samples beyond the tail" `Quick percentile_rule ]);
      ( "oracle",
        [
          Alcotest.test_case "doctored query count" `Quick doctored_query_count;
          Alcotest.test_case "planted residue" `Quick planted_residue;
          Alcotest.test_case "residue across blocks" `Quick residue_straddles_blocks;
        ] );
    ]
