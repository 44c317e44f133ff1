(* Spans recorded from outside the library, around the calls the traced
   run makes into each layer's public functions.  A span has a name, a
   layer, its op, its parent, start and end on both clocks, and the
   deltas of the PD device's and DBFS's counters over its interval.
   Spans are kept in memory and written out when the run ends. *)

module Clock = Rgpdos_util.Clock
module Counter = Rgpdos_util.Stats.Counter
module Block_device = Rgpdos_block.Block_device
module Dbfs = Rgpdos_dbfs.Dbfs

(* Counters read at every span boundary: first the PD device's, then
   DBFS's (which includes its cache, page store and journal tallies). *)
let device_counters =
  [| "reads"; "bytes_read"; "merged_runs"; "writes"; "write_ops";
     "bytes_written"; "trims" |]

let dbfs_counters =
  [| "membrane_reads"; "record_reads"; "cache_hits"; "cache_misses";
     "cache_evictions"; "page_hits"; "page_misses"; "index_page_reads";
     "index_probes"; "committed_batches"; "batched_ops" |]

let counter_names = Array.append device_counters dbfs_counters

let index_of name =
  let rec go i =
    if i >= Array.length counter_names then invalid_arg ("Trace: no counter " ^ name)
    else if counter_names.(i) = name then i
    else go (i + 1)
  in
  go 0

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;
  parent : int;  (** -1 for an op's root span *)
  wall0 : float;
  mutable wall1 : float;
  sim0 : Clock.ns;
  mutable sim1 : Clock.ns;
  counts : int array;  (** counter deltas over the span *)
}

type t = {
  clock : Clock.t;
  device : Block_device.t;
  dbfs : Dbfs.t;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : span list;
  mutable op : int;
}

let create ~clock ~device ~dbfs =
  { clock; device; dbfs; spans = []; next_id = 0; stack = []; op = -1 }

let read_counters t =
  let dev = Block_device.stats t.device and fs = Dbfs.stats t.dbfs in
  let nd = Array.length device_counters in
  Array.init (Array.length counter_names) (fun i ->
      if i < nd then Counter.get dev device_counters.(i)
      else Counter.get fs dbfs_counters.(i - nd))

let with_span t ~layer name f =
  let parent = match t.stack with [] -> -1 | p :: _ -> p.id in
  let c0 = read_counters t in
  let span =
    {
      id = t.next_id;
      name;
      layer;
      op = t.op;
      parent;
      wall0 = Unix.gettimeofday ();
      wall1 = 0.0;
      sim0 = Clock.now t.clock;
      sim1 = 0;
      counts = c0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- span :: t.stack;
  Fun.protect f ~finally:(fun () ->
      span.wall1 <- Unix.gettimeofday ();
      span.sim1 <- Clock.now t.clock;
      let c1 = read_counters t in
      Array.iteri (fun i v -> span.counts.(i) <- v - c0.(i)) c1;
      t.stack <- List.tl t.stack;
      t.spans <- span :: t.spans)

(* The root span of op [op]: every span opened inside carries its id. *)
let with_op t ~op name f =
  t.op <- op;
  with_span t ~layer:"machine" name f

let spans t = List.rev t.spans

let wall_ms s = (s.wall1 -. s.wall0) *. 1e3
let sim_ns s = s.sim1 - s.sim0
let count s name = s.counts.(index_of name)

(* Tab-separated dump, one span per line. *)
let write t path =
  let oc = open_out path in
  output_string oc
    ("id\top\tparent\tlayer\tname\twall_start_s\twall_end_s\tsim_start_ns\tsim_end_ns\t"
    ^ String.concat "\t" (Array.to_list counter_names)
    ^ "\n");
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.6f\t%.6f\t%d\t%d\t%s\n" s.id s.op
        s.parent s.layer s.name s.wall0 s.wall1 s.sim0 s.sim1
        (String.concat "\t" (Array.to_list (Array.map string_of_int s.counts))))
    (spans t);
  close_out oc
