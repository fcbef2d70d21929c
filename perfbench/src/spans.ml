(* Benchmark-side spans and self-time attribution.

   The benchmark wraps each public call it makes into a layer in a span
   kept in this module's memory (name, start, end, parent).  The program
   records its own flat spans in [Runtime.Trace]; the few of those that
   mark a layer boundary the benchmark cannot reach from outside (the
   solver inside [Serve.Engine.recommend], INUM builds inside a serve
   flush or whatif) are folded in as children of the innermost benchmark
   span that contains them, when that span wraps a [Serve.Engine] call.
   Inside the advise pipeline the benchmark wraps every layer itself, so
   nothing is folded there.  A layer's self time is its spans' durations
   minus the part their children cover, so the layers add up to the root
   span. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  t0 : float;  (** seconds on [Runtime.Clock] *)
  t1 : float;
}

let recording = ref false
let finished : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let start () =
  recording := true;
  finished := [];
  open_ids := [];
  next_id := 0

let stop () = recording := false

(* [with_span name f] runs [f ()], recording a span when recording is on
   (also when [f] raises). *)
let with_span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let t0 = Runtime.Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Runtime.Clock.now () in
        open_ids := List.tl !open_ids;
        finished := { id; parent; name; t0; t1 } :: !finished)
  end

let recorded () = List.rev !finished

(* Program span names that stand for a layer, and the layer they are
   charged to. *)
let program_layer name =
  if String.starts_with ~prefix:"solver." name then Some "solver.solve"
  else if String.equal name "inum.add_statements" || String.equal name "inum.build"
  then Some "inum.build"
  else None

(* Layer program spans of the calling domain, outermost only (an
   [inum.build] inside an [inum.add_statements] is already covered). *)
let program_spans () =
  let candidates =
    List.filter_map
      (fun (s : Runtime.Trace.span) ->
        if s.Runtime.Trace.dom <> 0 then None
        else
          Option.map
            (fun layer -> (layer, s.Runtime.Trace.ts, s.ts +. s.dur))
            (program_layer s.sname))
      (Runtime.Trace.spans ())
  in
  let sorted =
    List.sort
      (fun (_, a0, a1) (_, b0, b1) ->
        match Float.compare a0 b0 with 0 -> Float.compare b1 a1 | c -> c)
      candidates
  in
  let rec outermost acc last_end = function
    | [] -> List.rev acc
    | ((_, t0, t1) as s) :: rest ->
        if t0 >= last_end then outermost (s :: acc) t1 rest
        else if t1 <= last_end then outermost acc last_end rest
        else outermost (s :: acc) t1 rest
  in
  outermost [] Float.neg_infinity sorted

(* Spans the program recorded under [name] on the calling domain. *)
let program_count name =
  List.length
    (List.filter
       (fun (s : Runtime.Trace.span) ->
         s.Runtime.Trace.dom = 0 && String.equal s.sname name)
       (Runtime.Trace.spans ()))

type attribution = {
  layers : (string * float) list;  (** layer -> self seconds, sorted *)
  counts : (string * int) list;  (** benchmark span name -> spans *)
  wall : float;  (** root spans' total duration *)
}

(* Self time per layer over the recorded benchmark spans plus the
   program's layer spans.  A benchmark span named [root] contributes its
   self time to the ["other"] layer. *)
let attribute ~root =
  let ours = recorded () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) ours;
  let covered = Hashtbl.create 64 in
  let add_covered id d =
    Hashtbl.replace covered id
      (d +. Option.value ~default:0.0 (Hashtbl.find_opt covered id))
  in
  let layers = Hashtbl.create 16 in
  let charge layer d =
    Hashtbl.replace layers layer
      (d +. Option.value ~default:0.0 (Hashtbl.find_opt layers layer))
  in
  let counts = Hashtbl.create 16 in
  let count name =
    Hashtbl.replace counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  List.iter
    (fun s ->
      count s.name;
      if s.parent >= 0 then add_covered s.parent (s.t1 -. s.t0))
    ours;
  (* the innermost benchmark span containing an interval *)
  let innermost t0 t1 =
    List.fold_left
      (fun best s ->
        if s.t0 <= t0 && t1 <= s.t1 then
          match best with
          | Some b when b.t1 -. b.t0 <= s.t1 -. s.t0 -> best
          | _ -> Some s
        else best)
      None ours
  in
  List.iter
    (fun (layer, t0, t1) ->
      match innermost t0 t1 with
      | Some host when String.starts_with ~prefix:"serve." host.name ->
          add_covered host.id (t1 -. t0);
          charge layer (t1 -. t0)
      | _ -> ())
    (program_spans ());
  let wall = ref 0.0 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      if s.parent < 0 then wall := !wall +. d;
      let self =
        d -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
      in
      charge (if String.equal s.name root then "other" else s.name) self)
    ours;
  {
    layers = Runtime.Tbl.sorted_bindings layers;
    counts = Runtime.Tbl.sorted_bindings counts;
    wall = !wall;
  }

(* The recorded benchmark spans as a JSON array. *)
let to_json () =
  let one s =
    Printf.sprintf {|{"id":%d,"parent":%d,"name":%S,"start_s":%.9f,"dur_s":%.9f}|}
      s.id s.parent s.name s.t0 (s.t1 -. s.t0)
  in
  "[" ^ String.concat ",\n" (List.map one (recorded ())) ^ "]\n"
