module Json = Rgpdos_util.Json

type cmp = Ge | Gt | Le | Lt
type better = Higher | Lower

type gate =
  | Bar of cmp * float
  | Exact of float
  | Rel of { better : better; tol : float; slack : float }

type 'r metric = {
  name : string;
  unit : string;
  gates : gate list;
  value : 'r -> float;
}

type 'r spec = {
  name : string;
  title : string;
  artifact : string;
  run : quick:bool -> 'r;
  render : 'r -> string;
  detail : 'r -> Json.t;
  metrics : 'r metric list;
}

type section = Section : 'r spec -> section

type report = {
  section : string;
  quick : bool;
  wall_ms : float;
  values : (string * float) list;
  detail : Json.t;
}

let schema_id = "rgpdos-bench/2"

let name (Section s) = s.name
let artifact (Section s) = s.artifact

let declared (Section s) =
  List.map (fun (m : _ metric) -> (m.name, m.unit, m.gates)) s.metrics

let measure spec ~quick ~wall_ms r =
  {
    section = spec.name;
    quick;
    wall_ms;
    values = List.map (fun (m : _ metric) -> (m.name, m.value r)) spec.metrics;
    detail = spec.detail r;
  }

(* host wall clock, not [Sys.time]: process CPU time sums across the
   domains a section fans out to and ticks in ~10 ms steps *)
let run (Section spec) ~quick =
  let t0 = Unix.gettimeofday () in
  let r = spec.run ~quick in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (measure spec ~quick ~wall_ms r, spec.render r)

(* ---------- gates ---------- *)

let cmp_holds cmp v bar =
  match cmp with Ge -> v >= bar | Gt -> v > bar | Le -> v <= bar | Lt -> v < bar

let cmp_symbol = function Ge -> ">=" | Gt -> ">" | Le -> "<=" | Lt -> "<"

let describe = function
  | Bar (cmp, bar) -> Printf.sprintf "%s %g" (cmp_symbol cmp) bar
  | Exact x -> Printf.sprintf "= %g" x
  | Rel { better; tol; slack } ->
      Printf.sprintf "%s committed %s%g%%%s"
        (match better with Higher -> ">=" | Lower -> "<=")
        (match better with Higher -> "-" | Lower -> "+")
        (100.0 *. tol)
        (if slack > 0.0 then Printf.sprintf " (or within %g)" slack else "")

(* the worst fresh value a relative gate accepts: [tol] of the committed
   figure, widened to an absolute [slack] where that is larger *)
let rel_limit ~better ~tol ~slack committed =
  match better with
  | Higher -> Float.min (committed *. (1.0 -. tol)) (committed -. slack)
  | Lower -> Float.max (committed *. (1.0 +. tol)) (committed +. slack)

(* Absolute and exact gates.  Every declared metric must be present and
   a number; relative gates need the committed figure, see [compare]. *)
let validate (Section spec) (r : report) =
  List.concat_map
    (fun (m : _ metric) ->
      match List.assoc_opt m.name r.values with
      | None -> [ m.name ^ ": missing" ]
      | Some v when Float.is_nan v -> [ m.name ^ ": not a number" ]
      | Some v ->
          List.filter_map
            (fun g ->
              let ok =
                match g with
                | Bar (cmp, bar) -> cmp_holds cmp v bar
                | Exact x -> v = x
                | Rel _ -> true
              in
              if ok then None
              else
                Some
                  (Printf.sprintf "%s = %g %s, gate %s" m.name v m.unit
                     (describe g)))
            m.gates)
    spec.metrics

(* The committed artifact is held to the same absolute bars as the fresh
   run; every metric it records must still exist in the fresh run; and
   the relative gates compare the two. *)
let compare (Section spec as s) ~(committed : report) ~(fresh : report) =
  let held = List.map (fun l -> "committed " ^ l) (validate s committed) in
  let vanished =
    List.filter_map
      (fun (name, v) ->
        if List.mem_assoc name fresh.values then None
        else
          Some
            (Printf.sprintf "%s: vanished from the fresh run (committed %g)"
               name v))
      committed.values
  in
  let relative =
    List.concat_map
      (fun (m : _ metric) ->
        match
          ( List.assoc_opt m.name committed.values,
            List.assoc_opt m.name fresh.values )
        with
        | Some old, Some cur ->
            List.filter_map
              (function
                | Rel { better; tol; slack } as g ->
                    let limit = rel_limit ~better ~tol ~slack old in
                    let ok =
                      match better with
                      | Higher -> cur >= limit
                      | Lower -> cur <= limit
                    in
                    if ok then None
                    else
                      Some
                        (Printf.sprintf
                           "%s regressed: committed %g -> fresh %g %s (limit \
                            %g, gate %s)"
                           m.name old cur m.unit limit (describe g))
                | Bar _ | Exact _ -> None)
              m.gates
        | _ -> [])
      spec.metrics
  in
  held @ vanished @ relative

(* ---------- JSON and files ---------- *)

let to_json (Section spec) (r : report) =
  let unit_of name =
    match List.find_opt (fun (m : _ metric) -> m.name = name) spec.metrics with
    | Some m -> m.unit
    | None -> ""
  in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("section", Json.Str r.section);
      ("quick", Json.Bool r.quick);
      ("wall_ms", Json.Num r.wall_ms);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ] ))
             r.values) );
      ("detail", r.detail);
    ]

let of_json (Section spec) v =
  let str k = Option.bind (Json.member k v) Json.to_str in
  match (str "schema", str "section", Json.member "metrics" v) with
  | None, _, _ -> Error "missing schema key"
  | Some id, _, _ when id <> schema_id -> Error ("unexpected schema id " ^ id)
  | _, Some section, _ when section <> spec.name ->
      Error (Printf.sprintf "artifact is for section %s, not %s" section spec.name)
  | _, None, _ -> Error "missing section key"
  | _, Some section, Some (Json.Obj metrics) ->
      let value m =
        match Option.bind (Json.member "value" m) Json.to_float with
        | Some f -> f
        | None -> Float.nan
      in
      Ok
        {
          section;
          quick = Json.member "quick" v = Some (Json.Bool true);
          wall_ms =
            Option.value ~default:Float.nan
              (Option.bind (Json.member "wall_ms" v) Json.to_float);
          values = List.map (fun (k, m) -> (k, value m)) metrics;
          detail = Option.value ~default:Json.Null (Json.member "detail" v);
        }
  | _, Some _, _ -> Error "missing metrics object"

let write_file section path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json section r)))

let read_file section path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Result.bind (Json.of_string raw) (of_json section)

let compare_dir ~dir section fresh =
  let path = Filename.concat dir (artifact section) in
  if not (Sys.file_exists path) then [ "missing committed artifact " ^ path ]
  else
    match read_file section path with
    | Error e -> [ Printf.sprintf "cannot parse %s: %s" path e ]
    | Ok committed ->
        List.map (fun l -> path ^ ": " ^ l) (compare section ~committed ~fresh)
