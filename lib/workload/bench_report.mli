(** The bench-gate registry: one shape for every committed [BENCH_*.json].

    A gated section is a name, a [run ~quick] function and a list of
    metrics.  Each metric names a number derived from the run, its unit
    and its gates.  A gate is one of three kinds:
    - an absolute bar ([Bar]), held by the fresh run {e and} the
      committed artifact;
    - an exact value ([Exact]), held the same way;
    - a tolerance relative to the committed artifact ([Rel]).

    {!validate} enforces the first two kinds, {!compare} the third (and
    holds the committed artifact to the first two).  The sections
    themselves are declared by the bench harness. *)

module Json = Rgpdos_util.Json

type cmp = Ge | Gt | Le | Lt
type better = Higher | Lower

type gate =
  | Bar of cmp * float  (** [value cmp bar] must hold *)
  | Exact of float  (** [value = x] must hold *)
  | Rel of { better : better; tol : float; slack : float }
      (** the fresh value may be worse than the committed one by at
          most the fraction [tol], or by at most [slack] absolute units
          where that is larger *)

type 'r metric = {
  name : string;
  unit : string;
  gates : gate list;  (** [[]]: recorded, and required to be a number *)
  value : 'r -> float;
}

type 'r spec = {
  name : string;  (** section name on the bench command line *)
  title : string;
  artifact : string;  (** committed file name, e.g. ["BENCH_hotpath.json"] *)
  run : quick:bool -> 'r;
  render : 'r -> string;  (** human-readable tables *)
  detail : 'r -> Json.t;  (** ungated rows kept in the artifact for readers *)
  metrics : 'r metric list;
}

type section = Section : 'r spec -> section

type report = {
  section : string;
  quick : bool;
  wall_ms : float;  (** host wall clock of the run *)
  values : (string * float) list;  (** metric name -> value *)
  detail : Json.t;
}

val schema_id : string
(** Value of every artifact's ["schema"] key. *)

val name : section -> string
val artifact : section -> string

val declared : section -> (string * string * gate list) list
(** Every metric's name, unit and gates, in declaration order. *)

val measure : 'r spec -> quick:bool -> wall_ms:float -> 'r -> report
(** The report of one run result. *)

val run : section -> quick:bool -> report * string
(** Run the section, timing it on the host wall clock; returns the
    report and the rendered tables. *)

val describe : gate -> string

val validate : section -> report -> string list
(** The failing absolute and exact gates, one line each; [[]] when the
    report passes.  A declared metric that is missing or not a number
    fails. *)

val compare : section -> committed:report -> fresh:report -> string list
(** The committed report's failing absolute and exact gates, every
    committed metric missing from the fresh report, and the failing
    relative gates. *)

val to_json : section -> report -> Json.t
val of_json : section -> Json.t -> (report, string) result

val write_file : section -> string -> report -> unit

val read_file : section -> string -> (report, string) result
(** Parse an artifact; [Error] carries the I/O, JSON or shape error. *)

val compare_dir : dir:string -> section -> report -> string list
(** {!compare} against [dir/artifact]; a missing or unparseable artifact
    is itself a failing gate, named by its path. *)
