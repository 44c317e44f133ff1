(* Command line of the GDPR persona benchmark.

     main.exe --workload rights|processing --seed N --seconds S --trace 0|1

   --trace 0 runs the workload untraced and reports the end-to-end
   metrics; --trace 1 runs it untraced and then traced, checks that both
   runs end in the same state, writes the spans to
   perfbench/out/spans-<workload>-<seed>.tsv and reports the per-layer
   metrics.  The last line of standard output is the result as JSON.
   Exit codes: 0 correct, 1 an output check failed, 2 the run could not
   report (bad arguments, wrong machine state, too few samples). *)

open Perfbench

let setup_repeats = 7

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let summary (r : Bench.run) =
  let mix = List.length (Metrics.persona r) in
  Printf.printf "%s seed %Ld: %d mix + %d probe ops, %d failed, audit chain %d\n"
    (Workload.to_string r.Bench.config.Workload.workload)
    r.Bench.seed mix (Bench.attempted r - mix) r.Bench.failed r.Bench.chain_end;
  List.iter (fun e -> Printf.printf "  oracle: %s\n" e) r.Bench.errors

let write_spans (r : Bench.run) =
  match r.Bench.trace with
  | None -> ()
  | Some (t, _) ->
      let dir = Filename.concat "perfbench" "out" in
      if Sys.file_exists "perfbench" then begin
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path =
          Filename.concat dir
            (Printf.sprintf "spans-%s-%Ld.tsv"
               (Workload.to_string r.Bench.config.Workload.workload)
               r.Bench.seed)
        in
        Trace.write t path;
        Printf.printf "spans written to %s\n" path
      end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " rights | processing");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " run length, as seconds of the workload's op budget");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> fail "unexpected argument %s" a) "main.exe [options]";
  let w =
    match Workload.of_string !workload with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  let config = Workload.config ~seconds:!seconds w in
  let seed = Int64.of_int !seed in
  try
    match !trace with
    | 0 ->
        (* extra set-ups before and after the run, each from a collected
           heap, so that their median spans the run's machine conditions *)
        let extra () = List.init (setup_repeats / 2) (fun _ -> Bench.setup_seconds config ~seed) in
        let before = extra () in
        Gc.full_major ();
        let r = Bench.execute config ~seed in
        summary r;
        let setups = (r.Bench.setup_s :: before) @ extra () in
        let setup_s = Metrics.median ~what:"setup" (Metrics.sorted setups) in
        let metrics = Metrics.end_to_end r ~setup_s in
        let correct = Bench.correct r in
        print_endline
          (Metrics.result_line ~correct ~attempted:(Bench.attempted r) ~failed:r.Bench.failed
             metrics);
        exit (if correct then 0 else 1)
    | 1 ->
        let u = Bench.execute config ~seed in
        summary u;
        let t = Bench.execute ~traced:true config ~seed in
        summary t;
        let same = u.Bench.fingerprint = t.Bench.fingerprint in
        if not same then
          Printf.printf "  traced run ends in another state:\n    untraced %s\n    traced   %s\n"
            u.Bench.fingerprint t.Bench.fingerprint;
        write_spans t;
        let metrics = Metrics.per_layer t ~untraced:u in
        let correct = Bench.correct u && Bench.correct t && same in
        print_endline
          (Metrics.result_line ~correct ~attempted:(Bench.attempted t) ~failed:t.Bench.failed
             metrics);
        exit (if correct then 0 else 1)
    | n -> fail "--trace must be 0 or 1, not %d" n
  with
  | Workload.Wrong_state msg -> fail "wrong state: %s" msg
  | Metrics.Too_few_samples msg -> fail "too few samples: %s" msg
