(* The full evaluation harness.

   Usage: dune exec bench/main.exe -- [--quick] [--out DIR] [--compare DIR]
                                      [SECTION ...]

   With no SECTION it runs everything: Figure 1 (the paper's penalty
   statistics), experiments E2-E11 with the E2b scaling sweep and the
   A1/A2/A3 ablations (DESIGN.md §3), then the eight gated sections of
   Rgpdos_bench.Sections (hotpath scale index model mount segment sla
   async).  [--quick] shrinks problem sizes for a fast smoke
   pass.

   Every gated section validates its fresh report against the gates it
   declares (Rgpdos_workload.Bench_report).  [--out DIR] writes each
   report to DIR under its artifact name (BENCH_hotpath.json, ...);
   [--compare DIR] holds it against the committed artifact of that name
   in DIR, which must exist and parse.  Every failing gate is printed
   before the single non-zero exit, so one run reports the full damage.
   The committed artifacts are regenerated from the repository root with

     dune exec bench/main.exe -- --out . SECTION ...

   (mount at full scale builds 10^6 subjects: ~6 min and ~20 GB of RAM). *)

module E = Rgpdos_workload.Experiments
module BR = Rgpdos_workload.Bench_report
module Penalties = Rgpdos_penalties.Penalties
module Prng = Rgpdos_util.Prng
module Rsa = Rgpdos_crypto.Rsa
module Envelope = Rgpdos_crypto.Envelope

let section title body =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n";
  print_endline body

(* A3: crypto-erasure cost versus the authority's key size.  Wall-clock
   (host) timing of keygen / seal / open at growing RSA moduli — the knob
   an operator turns when the simulation-scale default (256 bits) is not
   enough. *)
let run_keysize_ablation () =
  let prng = Prng.create ~seed:4L () in
  let payload = Prng.bytes prng 1024 in
  let time_one f =
    let t0 = Sys.time () in
    let r = f () in
    (r, (Sys.time () -. t0) *. 1e3)
  in
  (* Sys.time has ~10ms resolution: average the cheap operations *)
  let time_avg n f =
    let t0 = Sys.time () in
    let last = ref (f ()) in
    for _ = 2 to n do
      last := f ()
    done;
    (!last, (Sys.time () -. t0) *. 1e3 /. float_of_int n)
  in
  let rows =
    List.map
      (fun bits ->
        let kp, keygen_ms = time_one (fun () -> Rsa.generate ~bits prng) in
        let env, seal_ms =
          time_avg 20 (fun () -> Envelope.seal prng kp.Rsa.public payload)
        in
        let opened, open_ms =
          time_avg 5 (fun () -> Envelope.open_ kp.Rsa.private_ env)
        in
        (match opened with
        | Ok p when String.equal p payload -> ()
        | _ -> failwith "a3: envelope did not roundtrip");
        [
          string_of_int bits;
          Printf.sprintf "%.1f" keygen_ms;
          Printf.sprintf "%.2f" seal_ms;
          Printf.sprintf "%.2f" open_ms;
        ])
      [ 256; 384; 512; 1_024 ] (* < ~224 bits cannot hold the envelope seed *)
  in
  Rgpdos_util.Table.render
    ~align:Rgpdos_util.Table.[ Right; Right; Right; Right ]
    ~header:[ "modulus bits"; "keygen ms"; "seal 1KiB ms"; "open 1KiB ms" ]
    rows

(* the report-only sections: name, title, table *)
let tables ~quick =
  let d full small = if quick then small else full in
  [
    ( "fig1",
      "FIG1 — GDPR penalty statistics (paper Figure 1)",
      Penalties.render_figure1 );
    ( "e2",
      "E2 — GDPRBench roles: rgpdOS vs DB-level GDPR vs vanilla",
      fun () ->
        E.render_e2
          (E.e2_gdprbench ~subjects:(d 400 80) ~ops_per_role:(d 200 50) ()) );
    ( "e2b",
      "E2b — processor-role scaling sweep",
      fun () ->
        E.render_e2b
          (E.e2b_scaling
             ~sizes:(d [ 100; 200; 400; 800 ] [ 50; 100 ])
             ~ops:(d 100 30) ()) );
    ( "e3",
      "E3 — right to be forgotten (forensic)",
      fun () ->
        E.render_e3 (E.e3_erasure ~subjects:(d 300 60) ~erase_fraction:0.10 ()) );
    ( "e5",
      "E5 — storage-limitation sweep",
      fun () ->
        E.render_e5
          (E.e5_ttl ~sizes:(d [ 500; 1_000; 2_000; 4_000 ] [ 100; 200 ]) ()) );
    ( "e6",
      "E6 — membrane filter selectivity",
      fun () -> E.render_e6 (E.e6_filter ~subjects:(d 1_000 150) ()) );
    ( "e7",
      "E7 — cross-purpose leak attempts",
      fun () -> E.render_e7 (E.e7_leak ~attacks:(d 200 40) ()) );
    ( "e8",
      "E8 — ps_register purpose/implementation checks",
      fun () -> E.render_e8 (E.e8_register ()) );
    ( "e9",
      "E9 — purpose-kernel partitioning",
      fun () -> E.render_e9 (E.e9_kernels ~jobs:(d 100 24) ()) );
    ( "e11",
      "E11 — consent churn with live copies",
      fun () ->
        E.render_e11
          (E.e11_consent_churn ~subjects:(d 300 60) ~flips:(d 200 40) ()) );
    ( "a1",
      "A1 — ablation: two-phase vs single-phase DBFS fetching",
      fun () -> E.render_a1 (E.a1_fetch_mode ~subjects:(d 500 80) ()) );
    ( "a2",
      "A2 — ablation: DED placement (host / PIM / PIS)",
      fun () -> E.render_a2 (E.a2_placement ~subjects:(d 1_000 150) ()) );
    ( "e10",
      "E10 — audit-chain verification",
      fun () ->
        E.render_e10
          (E.e10_audit ~sizes:(d [ 100; 1_000; 10_000; 50_000 ] [ 100; 1_000 ]) ())
    );
    ( "a3",
      "A3 — ablation: crypto-erasure cost vs authority key size (wall clock)",
      run_keysize_ablation );
  ]

let () =
  let rec parse (quick, out, cmp, names) = function
    | [] -> (quick, out, cmp, List.rev names)
    | "--quick" :: rest -> parse (true, out, cmp, names) rest
    | "--out" :: dir :: rest -> parse (quick, Some dir, cmp, names) rest
    | "--compare" :: dir :: rest -> parse (quick, out, Some dir, names) rest
    | [ ("--out" | "--compare") as flag ] ->
        failwith (flag ^ " requires a DIR argument")
    | name :: rest -> parse (quick, out, cmp, name :: names) rest
  in
  let quick, out, compare_dir, wanted =
    parse (false, None, None, []) (List.tl (Array.to_list Sys.argv))
  in
  let tables = tables ~quick in
  let known =
    List.map (fun (n, _, _) -> n) tables
    @ List.map BR.name Rgpdos_bench.Sections.all
  in
  (match List.filter (fun n -> not (List.mem n known)) wanted with
  | [] -> ()
  | unknown ->
      failwith
        (Printf.sprintf "unknown section(s) %s; known: %s"
           (String.concat " " unknown) (String.concat " " known)));
  let enabled name = wanted = [] || List.mem name wanted in
  List.iter
    (fun (name, title, body) -> if enabled name then section title (body ()))
    tables;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    out;
  let failures =
    List.concat_map
      (fun (BR.Section spec as s) ->
        if not (enabled spec.BR.name) then []
        else begin
          let report, text = BR.run s ~quick in
          section spec.BR.title text;
          Option.iter
            (fun dir ->
              let path = Filename.concat dir spec.BR.artifact in
              BR.write_file s path report;
              Printf.printf "\nwrote %s\n" path)
            out;
          let failed =
            BR.validate s report
            @ Option.fold ~none:[]
                ~some:(fun dir -> BR.compare_dir ~dir s report)
                compare_dir
          in
          Printf.printf "\n%s: %d metrics, %s (%.0f ms wall)\n" spec.BR.name
            (List.length report.BR.values)
            (if failed = [] then "all gates pass" else "GATE FAILED")
            report.BR.wall_ms;
          List.map (fun l -> spec.BR.name ^ ": " ^ l) failed
        end)
      Rgpdos_bench.Sections.all
  in
  if failures <> [] then begin
    Printf.eprintf "\n%d gate(s) failed:\n" (List.length failures);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1
  end;
  print_newline ();
  print_endline "done."
