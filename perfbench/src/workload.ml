(* The GDPRBench persona workloads (Shastri et al.) and how each is set
   up.  A workload is a persona mix run by one closed-loop client
   over a fixed, seeded op sequence, with a probe: ops of the request
   classes the persona's mix samples too rarely, so that every workload
   reports every end-to-end latency metric. *)

module Prng = Rgpdos_util.Prng
module Machine = Rgpdos.Machine
module Dbfs = Rgpdos_dbfs.Dbfs
module Population = Rgpdos_workload.Population
module Gdprbench = Rgpdos_workload.Gdprbench
module Runner = Rgpdos_workload.Runner

type name = Rights | Processing

let all = [ Rights; Processing ]

let to_string = function Rights -> "rights" | Processing -> "processing"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Request classes with a latency metric, and the least number of
   samples a run collects of each.  120 samples keep eleven above their
   p90 (the percentile rule asks for ten; the eleventh allows one tie);
   verification is reported at its median, and inserts feed write
   amplification.  Probe queries run back to back after the mix, so they
   get a longer window.  Verification walks the whole chain: cheap on
   [rights]' short chain, dear on [processing]'s long one, hence its own
   count. *)
let probe_minimums ~verify =
  [ ("verify_audit", verify); ("access", 120); ("update_consent", 120);
    ("insert", 50); ("purpose_query", 220) ]

type config = {
  workload : name;
  subjects : int;  (** population size N *)
  mix_ops : int;  (** length of the persona mix, in ops *)
  minimums : (string * int) list;  (** least samples per request class *)
  paged : bool;  (** checkpoint after load, so the index is paged *)
  cache_budget : int option;  (** [Dbfs.set_cache_budget] after load *)
}

let role = function Rights -> Gdprbench.Customer | Processing -> Gdprbench.Processor

(* Mix length per second of [--seconds].  The run length is counted in
   ops, not time: a faster build does the same work, it does not do more
   of it (per-op cost grows with the audit chain and with erasures). *)
let ops_per_second = function Rights -> 480 | Processing -> 20

let config ?(seconds = 15) workload =
  let mix_ops = max 1 (ops_per_second workload * seconds) in
  match workload with
  | Rights ->
      { workload; subjects = 2_000; mix_ops; minimums = probe_minimums ~verify:21;
        paged = false; cache_budget = None }
  | Processing ->
      { workload; subjects = 1_000; mix_ops; minimums = probe_minimums ~verify:11;
        paged = true; cache_budget = Some 512 }

(* ------------------------------------------------------------------ *)
(* inputs                                                             *)

let population ~seed ~subjects =
  let prng = Prng.create ~seed () in
  (prng, Population.generate prng ~n:subjects)

let fresh_id i = Printf.sprintf "sub-%06d" i

type origin = Mix | Probe

(* The mix comes from [Gdprbench.generate] on the PRNG that generated the
   population; the probe from a second PRNG derived from the seed.  Probe
   inserts continue the mix's fresh-subject numbering.  Returns the
   people, the body (mix and probe interleaved, each op tagged with its
   origin) and the tail of probe queries. *)
let generate config ~seed =
  let prng, people = population ~seed ~subjects:config.subjects in
  let mix =
    Gdprbench.generate prng ~role:(role config.workload) ~population:people
      ~n:config.mix_ops
  in
  let count kind =
    List.length (List.filter (fun op -> Gdprbench.op_kind op = kind) mix)
  in
  let probe_prng = Prng.create ~seed:(Int64.logxor seed 0x5eed_9a0bL) () in
  let pop = Array.of_list people in
  let zipf = Prng.Zipf.create ~n:(Array.length pop) ~theta:0.99 in
  let subject () = pop.(Prng.Zipf.sample zipf probe_prng).Population.subject_id in
  let next_fresh = ref (config.subjects + count "insert") in
  let probe_op kind i =
    match kind with
    | "verify_audit" -> Gdprbench.Op_verify_audit
    | "access" -> Gdprbench.Op_access (subject ())
    | "update_consent" ->
        Gdprbench.Op_update_consent
          {
            subject = subject ();
            purpose = Prng.pick_list probe_prng [ "analytics"; "marketing" ];
            grant = Prng.bool probe_prng;
          }
    | "insert" ->
        let p = List.hd (Population.generate probe_prng ~n:1) in
        let id = fresh_id !next_fresh in
        incr next_fresh;
        Gdprbench.Op_insert { p with Population.subject_id = id }
    | "purpose_query" ->
        (* round-robin, so every purpose is queried and checked *)
        Gdprbench.Op_purpose_query
          (List.nth Population.purposes (i mod List.length Population.purposes))
    | other -> invalid_arg ("Workload.generate: no probe for " ^ other)
  in
  let batches =
    List.map
      (fun (kind, minimum) ->
        (kind, List.init (max 0 (minimum - count kind)) (probe_op kind)))
      config.minimums
  in
  (* Probe ops ride along the mix, each class spread evenly over it, so
     that every class's samples see the machine over the whole run.
     Purpose queries are the exception and come after the mix: each
     appends about one audit entry per pd, which would change the
     persona's chain-bound costs. *)
  let spread ops =
    let n = List.length ops in
    List.mapi (fun i op -> ((float_of_int i +. 0.5) /. float_of_int n, op)) ops
  in
  let queries, others = List.partition (fun (kind, _) -> kind = "purpose_query") batches in
  let body =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (spread (List.map (fun op -> (Mix, op)) mix)
      @ List.concat_map (fun (_, ops) -> spread (List.map (fun op -> (Probe, op)) ops)) others)
    |> List.map snd
  in
  (people, body, List.concat_map snd queries)

(* ------------------------------------------------------------------ *)
(* set-up                                                             *)

(* Boot the default machine exactly as [Runner.machine_backend_full]
   does (heap allocator, group-commit window 1, synchronous I/O,
   [Runner.device_config] sizing, one [wl_<purpose>] reader per purpose,
   the population collected), then put it in the workload's state. *)
let setup config ~seed ~people =
  let _backend, machine =
    Runner.machine_backend_full ~seed ~population:people ()
  in
  let dbfs = Machine.dbfs machine in
  if config.paged then Dbfs.checkpoint dbfs;
  Option.iter (Dbfs.set_cache_budget dbfs) config.cache_budget;
  machine

exception Wrong_state of string

let guard cond msg = if not cond then raise (Wrong_state msg)

(* The state each workload must be in.  [rights] must keep the index in
   memory (no checkpoint, no journal wrap); [processing]
   must be paged and within its cache budget. *)
let check_state config machine ~when_ =
  let dbfs = Machine.dbfs machine in
  let pages = Dbfs.index_page_blocks dbfs in
  if config.paged then begin
    guard (pages <> [])
      (Printf.sprintf "%s %s: the index is not paged" (to_string config.workload) when_);
    Option.iter
      (fun budget ->
        guard
          (Dbfs.cache_resident dbfs <= budget)
          (Printf.sprintf "%s %s: %d cache entries resident, budget %d"
             (to_string config.workload) when_ (Dbfs.cache_resident dbfs) budget))
      config.cache_budget
  end
  else
    guard (pages = [])
      (Printf.sprintf "%s %s: index pages exist (a checkpoint or journal wrap happened)"
         (to_string config.workload) when_)
