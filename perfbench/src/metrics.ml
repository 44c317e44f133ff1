(* The metrics a run reports: end-to-end ones from an untraced run,
   per-layer ones from a traced run.  Names, units and definitions are
   listed in LAYERS.md. *)

module Stats = Rgpdos_util.Stats
module Ded = Rgpdos_ded.Ded
open Bench

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* percentiles                                                        *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Samples strictly above the [p] percentile of [a] (sorted). *)
let beyond a p =
  let v = Stats.percentile a p in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

exception Too_few_samples of string

(* A tail percentile is reported only when at least ten samples lie
   beyond it. *)
let tail ~what a p =
  let n = if Array.length a = 0 then 0 else beyond a p in
  if n < 10 then
    raise
      (Too_few_samples
         (Printf.sprintf "%s: %d samples, %d beyond p%g" what (Array.length a) n (p *. 100.)));
  Stats.percentile a p

let median ~what a =
  if Array.length a = 0 then raise (Too_few_samples (what ^ ": no samples"));
  Stats.percentile a 0.5

let of_kind r kind f =
  Array.to_list r.samples
  |> List.filter (fun s -> s.kind = kind)
  |> List.map f
  |> sorted

(* ------------------------------------------------------------------ *)
(* end to end (untraced run)                                          *)

let persona r = List.filter (fun s -> s.persona) (Array.to_list r.samples)

let ops_per_s r =
  let mix = persona r in
  float_of_int (List.length mix)
  /. (List.fold_left (fun acc s -> acc +. s.wall_ms) 0.0 mix /. 1e3)

(* Audit entries the persona's ops append, per op: the storage cost of
   GDPR logging. *)
let audit_entries_per_op r =
  let n = Array.length r.samples in
  let after i = if i + 1 < n then r.samples.(i + 1).chain else r.chain_end in
  let total = ref 0 and ops = ref 0 in
  Array.iteri
    (fun i s ->
      if s.persona then begin
        total := !total + after i - s.chain;
        incr ops
      end)
    r.samples;
  fratio !total !ops

(* Every end-to-end metric but [setup_s] is read off the simulated clock
   or a count: on a host whose speed drifts, wall-clock metrics spread
   past any bound the benchmark can carry (LAYERS.md), so they are
   reported with the per-layer metrics instead ([machine_wall]). *)
let end_to_end r ~setup_s =
  let sim kind = of_kind r kind (fun s -> float_of_int s.sim_ns /. 1e6) in
  let mix = persona r in
  let mix_sim_s = float_of_int (List.fold_left (fun acc s -> acc + s.sim_ns) 0 mix) /. 1e9 in
  [
    m "setup_s" "s" setup_s;
    m "sim_ops_per_s" "1/s" (float_of_int (List.length mix) /. mix_sim_s);
    m "sim_consent_p50_ms" "ms" (median ~what:"consent" (sim "update_consent"));
    m "sim_query_p50_ms" "ms" (median ~what:"query" (sim "purpose_query"));
    m "audit_entries_per_op" "count" (audit_entries_per_op r);
    m "heap_peak_mb" "MB" r.heap_mb;
    m "write_amp" "ratio" (fratio r.bytes_written r.bytes_collected);
  ]

(* The Machine API's wall-clock view, per request class, from an
   untraced run. *)
let machine_wall r =
  let wall kind = of_kind r kind (fun s -> s.wall_ms) in
  let access = wall "access" and consent = wall "update_consent" in
  let query = wall "purpose_query" in
  let verify_per_entry =
    of_kind r "verify_audit" (fun s -> s.wall_ms *. 1e3 /. float_of_int (max 1 s.chain))
  in
  [
    m "machine.ops_per_s" "1/s" (ops_per_s r);
    m "machine.access_p50_ms" "ms" (median ~what:"access" access);
    m "machine.access_p90_ms" "ms" (tail ~what:"access" access 0.90);
    m "machine.consent_p50_ms" "ms" (median ~what:"consent" consent);
    m "machine.consent_p90_ms" "ms" (tail ~what:"consent" consent 0.90);
    m "machine.query_p50_ms" "ms" (median ~what:"query" query);
    m "machine.query_p90_ms" "ms" (tail ~what:"query" query 0.90);
    m "machine.verify_us_per_entry" "us" (median ~what:"verify" verify_per_entry);
  ]

(* ------------------------------------------------------------------ *)
(* per layer (traced run)                                             *)

let per_layer r ~untraced =
  let t, ex =
    match r.trace with Some t -> t | None -> invalid_arg "Metrics.per_layer: untraced run"
  in
  let spans = Trace.spans t in
  let roots = List.filter (fun s -> s.Trace.parent < 0) spans in
  let ops = List.length roots in
  let roots_of kind = List.filter (fun s -> s.Trace.name = kind) roots in
  let nkind kind = List.length (roots_of kind) in
  let sum f l = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
  let isum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let calls layer name =
    List.filter (fun s -> s.Trace.layer = layer && s.Trace.name = name) spans
  in
  let mean_ms layer name =
    let l = calls layer name in
    ratio (sum Trace.wall_ms l) (float_of_int (List.length l))
  in
  let count_in l name = isum (fun s -> Trace.count s name) l in
  let per kind name = fratio (count_in (roots_of kind) name) (nkind kind) in
  let per_op name = fratio (count_in roots name) ops in
  let root_wall = sum Trace.wall_ms roots in
  (* wall time of each span's direct children, by parent id *)
  let child_wall = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.Trace.parent >= 0 then
        Hashtbl.replace child_wall s.Trace.parent
          (Trace.wall_ms s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_wall s.Trace.parent)))
    spans;
  let children_of s = Option.value ~default:0.0 (Hashtbl.find_opt child_wall s.Trace.id) in
  let covered = sum children_of roots in
  (* a layer's self time, as a share of all op time *)
  let share layer name =
    ratio (sum (fun s -> Trace.wall_ms s -. children_of s) (calls layer name)) root_wall
  in
  let queries = ex.Exec.queries in
  let nq = List.length queries in
  let stage_total name =
    List.fold_left
      (fun acc o -> acc + Option.value ~default:0 (List.assoc_opt name o.Ded.stage_ns))
      0 queries
  in
  let stage name = ratio (float_of_int (stage_total name) /. 1e6) (float_of_int nq) in
  (* simulated time of device-bound calls: DBFS, inserts, DED load stages *)
  let io_sim_ns =
    isum Trace.sim_ns
      (List.filter (fun s -> s.Trace.layer = "dbfs" || s.Trace.name = "collect") spans)
    + stage_total "ded_load_membrane" + stage_total "ded_load_data"
  in
  let consumed = List.fold_left (fun acc o -> acc + o.Ded.consumed) 0 queries in
  let selected =
    List.fold_left (fun acc o -> acc + o.Ded.consumed + o.Ded.filtered) 0 queries
  in
  let query_roots = roots_of "purpose_query" in
  let hits = count_in roots "cache_hits" and misses = count_in roots "cache_misses" in
  let page_hits = count_in roots "page_hits" and page_misses = count_in roots "page_misses" in
  let machine_self = root_wall -. covered in
  let traced_ops_per_s = ops_per_s r in
  [
    m "audit.export_ms" "ms" (mean_ms "audit" "export_for_subject");
    m "audit.entries_scanned_per_access" "count" (fratio ex.Exec.scanned (nkind "access"));
    m "audit.history_hit_ratio" "ratio" (fratio ex.Exec.returned ex.Exec.scanned);
    m "audit.verify_ms" "ms" (mean_ms "audit" "verify");
    m "audit.append_us" "us" (1e3 *. mean_ms "audit" "append");
    m "audit.chain_entries_end" "count" (float_of_int r.chain_end);
    m "dbfs.lineage_update_ms" "ms" (mean_ms "dbfs" "update_membranes_by_lineage");
    m "dbfs.membrane_reads_per_consent" "count" (per "update_consent" "membrane_reads");
    m "dbfs.export_subject_ms" "ms" (mean_ms "dbfs" "export_subject");
    m "dbfs.pds_of_subject_us" "us" (1e3 *. mean_ms "dbfs" "pds_of_subject");
    m "dbfs.erase_with_share" "ratio" (share "dbfs" "erase_with");
    m "dbfs.membrane_reads_per_query" "count" (per "purpose_query" "membrane_reads");
    m "dbfs.record_reads_per_query" "count" (per "purpose_query" "record_reads");
    m "cache.hit_ratio" "ratio" (fratio hits (hits + misses));
    m "cache.page_hit_ratio" "ratio" (fratio page_hits (page_hits + page_misses));
    m "cache.evictions_per_query" "count" (per "purpose_query" "cache_evictions");
    m "index.page_reads_per_pd" "count"
      (fratio (count_in query_roots "index_page_reads") selected);
    m "index.probes_per_op" "count" (per_op "index_probes");
    m "ps.invoke_ms" "ms" (mean_ms "ps" "invoke");
    m "ded.load_membrane_sim_ms" "ms" (stage "ded_load_membrane");
    m "ded.filter_sim_ms" "ms" (stage "ded_filter");
    m "ded.load_data_sim_ms" "ms" (stage "ded_load_data");
    m "ded.execute_sim_ms" "ms" (stage "ded_execute");
    m "ded.consumed_ratio" "ratio" (fratio consumed selected);
    m "crypto.seal_share" "ratio" (share "crypto" "seal");
    m "journal.batches_per_op" "count" (per_op "committed_batches");
    m "journal.batched_ops_per_op" "count" (per_op "batched_ops");
    m "block.reads_per_op" "count" (per_op "reads");
    m "block.bytes_read_per_op" "B" (per_op "bytes_read");
    m "block.merged_runs_per_op" "count" (per_op "merged_runs");
    m "block.merge_ratio" "ratio" (fratio (count_in roots "reads") (count_in roots "merged_runs"));
    m "block.sim_ms_per_op" "ms" (ratio (float_of_int io_sim_ns /. 1e6) (float_of_int ops));
    m "block.writes_per_op" "count" (per_op "writes");
    m "block.write_ops_per_op" "count" (per_op "write_ops");
    m "block.bytes_written_per_op" "B" (per_op "bytes_written");
    m "block.trims_per_op" "count" (per_op "trims");
    m "machine.self_us_per_op" "us" (1e3 *. ratio machine_self (float_of_int ops));
    m "trace.coverage" "ratio" (ratio covered root_wall);
    m "trace.overhead_ratio" "ratio" (ratio (ops_per_s untraced) traced_ops_per_s);
  ]
  @ machine_wall untraced

(* ------------------------------------------------------------------ *)
(* output                                                             *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.value) x.unit_)
          metrics))
