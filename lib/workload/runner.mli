(** Execute GDPRBench op streams against the three systems under test and
    collect simulated-time statistics (experiment E2's engine).

    The three backends:
    - {b rgpdos}: a booted {!Rgpdos.Machine} — processings run through
      PS/DED, rights through the machine API;
    - {b db-gdpr}: the Fig-2 baseline — {!Rgpdos_baseline.Userdb} in
      [Gdpr] mode over the journaling FS;
    - {b db-vanilla}: the same engine with enforcement off (the
      no-compliance performance bound).

    Latencies are {i simulated} nanoseconds from the shared virtual
    clock, so they reflect the modelled device/CPU costs rather than host
    noise; wall-clock totals are also reported. *)

type backend

val backend_name : backend -> string

val machine_backend :
  seed:int64 -> population:Population.person list -> backend
(** Boots a machine, loads {!Population.type_declaration}, registers one
    reader processing per purpose (shardable — counting readers declare
    [reduce_int_sum]), and collects the population. *)

val machine_backend_full :
  ?pool:Rgpdos_util.Pool.t ->
  seed:int64 ->
  population:Population.person list ->
  unit ->
  backend * Rgpdos.Machine.t
(** Like {!machine_backend} but also returns the booted machine, so
    callers (the sharded driver, tests) can reach its audit chain and
    clock.  [?pool] runs shardable DED executions on real domains; it
    must {i not} be the pool the backend itself runs on (never await
    inside a pooled task). *)

val baseline_backend :
  seed:int64 ->
  mode:Rgpdos_baseline.Userdb.mode ->
  population:Population.person list ->
  backend

type result = {
  backend : string;
  total_ops : int;
  unsupported : int;
      (** ops the backend cannot express (e.g. audit verification on the
          baseline, which has no tamper-evident log) *)
  errors : int;
  total_simulated_ns : int;
  per_op : (string * Rgpdos_util.Stats.summary) list;
      (** simulated-ns summaries keyed by op kind, sorted *)
}

val run : backend -> Gdprbench.op list -> result

val ops_per_simulated_second : result -> float

val pp_result : Format.formatter -> result -> unit
