(* One run of a workload: set-up, the timed ops (the persona mix with the
   probe riding along, then the probe's queries), and the end-of-run
   oracle.  Measurements are taken per op on both clocks;
   the oracle's own work is never inside a timed interval. *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Machine = Rgpdos.Machine
module Dbfs = Rgpdos_dbfs.Dbfs
module Block_device = Rgpdos_block.Block_device
module Audit_log = Rgpdos_audit.Audit_log
module Gdprbench = Rgpdos_workload.Gdprbench

type sample = {
  kind : string;
  persona : bool;  (** part of the persona mix, not of the probe *)
  chain : int;  (** audit chain length before the op *)
  wall_ms : float;
  sim_ns : Clock.ns;
}

type run = {
  config : Workload.config;
  seed : int64;
  setup_s : float;
  samples : sample array;  (** every op, in order *)
  heap_mb : float;  (** top of the major heap at the end of the mix *)
  bytes_written : int;  (** PD device, every op *)
  bytes_collected : int;  (** encoded records inserted, every op *)
  failed : int;  (** ops that returned an error *)
  errors : string list;  (** oracle failures, first ones first *)
  fingerprint : string;  (** end state: clock, audit head, image, results *)
  stream : string;  (** digest of the generated op sequence *)
  chain_end : int;
  trace : (Trace.t * Exec.extras) option;
}

let now = Unix.gettimeofday

let audit_head audit =
  match List.rev (Audit_log.entries audit) with
  | [] -> "genesis"
  | e :: _ -> e.Audit_log.hash

let image_digest image =
  Digest.to_hex
    (Digest.string
       (String.concat "" (Array.to_list (Array.map Digest.string image))))

let describe_op (op : Gdprbench.op) =
  match op with
  | Gdprbench.Op_insert p -> "insert " ^ p.Rgpdos_workload.Population.subject_id
  | Gdprbench.Op_purpose_query p -> "query " ^ p
  | Gdprbench.Op_subject_read s -> "read " ^ s
  | Gdprbench.Op_update_consent { subject; purpose; grant } ->
      Printf.sprintf "consent %s %s %b" subject purpose grant
  | Gdprbench.Op_access s -> "access " ^ s
  | Gdprbench.Op_erase s -> "erase " ^ s
  | Gdprbench.Op_ttl_sweep -> "ttl_sweep"
  | Gdprbench.Op_verify_audit -> "verify"

let describe_outcome (o : Ledger.outcome) =
  match o with
  | Ledger.Inserted id -> "inserted " ^ id
  | Ledger.Queried o | Ledger.Read o -> Printf.sprintf "consumed %d" o.Rgpdos_ded.Ded.consumed
  | Ledger.Consented n -> Printf.sprintf "consented %d" n
  | Ledger.Accessed d -> "accessed " ^ Digest.to_hex (Digest.string d)
  | Ledger.Erased n -> Printf.sprintf "erased %d" n
  | Ledger.Verified -> "verified"
  | Ledger.Failed e -> "failed " ^ e

(* The population's pds, in collection order, read off the audit chain
   the set-up wrote (one [Collected] entry per person, in order). *)
let collected_pds machine =
  List.filter_map
    (fun e ->
      match e.Audit_log.event with
      | Audit_log.Collected { pd_id; _ } -> Some pd_id
      | _ -> None)
    (Audit_log.entries (Machine.audit machine))

let max_errors = 20

(* [tamper] and [before_oracle] let the benchmark's tests doctor an output
   or the device image, to show the oracle catches it. *)
let execute ?(traced = false) ?(tamper = fun _ o -> o) ?(before_oracle = fun _ _ -> ())
    (config : Workload.config) ~seed =
  let people, body, tail = Workload.generate config ~seed in
  let stream =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map describe_op (List.map snd body @ tail))))
  in
  let t0 = now () in
  let machine = Workload.setup config ~seed ~people in
  let setup_s = now () -. t0 in
  Workload.check_state config machine ~when_:"before the timed phase";
  let ledger = Ledger.create people (collected_pds machine) in
  let clock = Machine.clock machine and device = Machine.pd_device machine in
  let tr =
    if traced then
      Some
        ( Trace.create ~clock ~device ~dbfs:(Machine.dbfs machine),
          Exec.extras () )
    else None
  in
  let errors = ref [] and nerrors = ref 0 and failed = ref 0 in
  let error msg =
    incr nerrors;
    if !nerrors <= max_errors then errors := msg :: !errors
  in
  let results = Buffer.create 4096 in
  let bytes_collected = ref 0 in
  let written () = Stats.Counter.get (Block_device.stats device) "bytes_written" in
  let written0 = written () in
  let index = ref 0 in
  let run_op (origin, op) =
    let i = !index in
    incr index;
    let chain = Audit_log.length (Machine.audit machine) in
    let w0 = now () and s0 = Clock.now clock in
    let outcome =
      match tr with
      | None -> Exec.untraced machine ledger op
      | Some (t, ex) -> Exec.traced machine ledger t ex ~op_index:i op
    in
    let wall_ms = (now () -. w0) *. 1e3 and sim_ns = Clock.now clock - s0 in
    let outcome = tamper op outcome in
    (match (tr, outcome) with
    | Some (_, ex), Ledger.Accessed doc ->
        ex.Exec.returned <- ex.Exec.returned + Ledger.count_substring doc "{\"seq\""
    | _ -> ());
    (match outcome with Ledger.Failed _ -> incr failed | _ -> ());
    (match Ledger.apply ledger op outcome with
    | Ok () -> ()
    | Error e -> error (Printf.sprintf "op %d (%s): %s" i (describe_op op) e));
    bytes_collected := !bytes_collected + Exec.collected_bytes op;
    Buffer.add_string results (describe_outcome outcome);
    Buffer.add_char results '\n';
    { kind = Gdprbench.op_kind op; persona = origin = Workload.Mix; chain; wall_ms; sim_ns }
  in
  let body = List.map run_op body in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1e6
  in
  Workload.check_state config machine ~when_:"after the timed phase";
  (* the queries start from a collected heap, not from wherever the mix
     left the major GC *)
  Gc.full_major ();
  let tail = List.map (fun op -> run_op (Workload.Probe, op)) tail in
  Workload.check_state config machine ~when_:"after the probe's queries";
  let bytes_written = written () - written0 in
  before_oracle machine ledger;
  (* end-of-run oracle *)
  let audit = Machine.audit machine in
  (match Audit_log.verify audit with
  | Ok () -> ()
  | Error seq -> error (Printf.sprintf "audit chain fails verification at %d" seq));
  (match Dbfs.fsck (Machine.dbfs machine) with
  | Ok () -> ()
  | Error problems ->
      error ("fsck: " ^ String.concat "; " (List.filteri (fun i _ -> i < 5) problems)));
  let image = Block_device.snapshot device in
  (match Residue.scan image (Ledger.erased_emails ledger) with
  | [] -> ()
  | found ->
      error
        (Printf.sprintf "%d erased subjects' emails remain on the PD image, e.g. %s"
           (List.length found) (List.hd found)));
  let fingerprint =
    Printf.sprintf "clock=%d audit=%s image=%s results=%s" (Clock.now clock)
      (audit_head audit) (image_digest image)
      (Digest.to_hex (Digest.string (Buffer.contents results)))
  in
  {
    config;
    seed;
    setup_s;
    samples = Array.of_list (body @ tail);
    heap_mb;
    bytes_written;
    bytes_collected = !bytes_collected;
    failed = !failed;
    errors =
      List.rev !errors
      @ (if !nerrors > max_errors then
           [ Printf.sprintf "... %d more" (!nerrors - max_errors) ]
         else []);
    fingerprint;
    stream;
    chain_end = Audit_log.length audit;
    trace = tr;
  }

(* Set-up time alone, for the median [setup_s] reports, from a collected
   heap as in a fresh process. *)
let setup_seconds (config : Workload.config) ~seed =
  let _, people = Workload.population ~seed ~subjects:config.subjects in
  Gc.full_major ();
  let t0 = now () in
  let machine = Workload.setup config ~seed ~people in
  let s = now () -. t0 in
  ignore (Sys.opaque_identity machine);
  s

let attempted r = Array.length r.samples
let correct r = r.errors = [] && r.failed = 0
