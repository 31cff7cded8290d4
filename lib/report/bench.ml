(* The one bench report schema.  Every suite writes the same shape --
   suite-level facts plus rows of {name, params, items, median_s,
   p99_s, throughput_per_s, telemetry} -- so one reader, one (name,
   params)-keyed diff and one gate runner serve them all, and only the
   workloads and the gates differ per suite. *)

let schema = "ulp-pip/bench/v5"

type row = {
  name : string;
  params : (string * Json.t) list;
  items : int;
  median_s : float;
  p99_s : float;
  throughput_per_s : float;
  telemetry : (string * Json.t) list;
}

type file = {
  suite : string;
  host_cores : int;
  quick : bool;
  facts : (string * Json.t) list;
  rows : row list;
}

let num kvs key = Option.bind (List.assoc_opt key kvs) Json.to_float

let show = function
  | Json.Num f when Float.is_integer f -> Printf.sprintf "%.0f" f
  | Json.Num f -> Printf.sprintf "%.4g" f
  | Json.Str s -> s
  | v -> String.trim (Json.to_string v)

let params_label r =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ show v) r.params)

let label r = Printf.sprintf "%s[%s]" r.name (params_label r)

let find rows name params =
  List.find_opt (fun r -> r.name = name && r.params = params) rows

let peer rows r (key, v) =
  find rows r.name
    (List.map (fun (k, v') -> (k, if k = key then v else v')) r.params)

(* ---------- JSON ---------- *)

let to_json f =
  let row r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("params", Json.Obj r.params);
        ("items", Json.Num (float_of_int r.items));
        ("median_s", Json.Num r.median_s);
        ("p99_s", Json.Num r.p99_s);
        ("throughput_per_s", Json.Num r.throughput_per_s);
        ("telemetry", Json.Obj r.telemetry);
      ]
  in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("suite", Json.Str f.suite);
       ("host_cores", Json.Num (float_of_int f.host_cores));
       ("quick", Json.Bool f.quick);
     ]
    @ f.facts
    @ [ ("results", Json.List (List.map row f.rows)) ])

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get conv what key obj =
  match Option.bind (Json.member key obj) conv with
  | Some v -> v
  | None -> bad "%s without a valid %S" what key

let row_of_json e =
  let name = get Json.to_str "result" "name" e in
  let sane key f =
    if Float.is_finite f && f >= 0.0 then f
    else bad "%s: %S is %g, want a finite value >= 0" name key f
  in
  let num key = sane key (get Json.to_float name key e) in
  let obj key = get (function Json.Obj kvs -> Some kvs | _ -> None) name key e in
  let telemetry = obj "telemetry" in
  List.iter (function k, Json.Num f -> ignore (sane k f) | _ -> ()) telemetry;
  {
    name;
    params = obj "params";
    items = int_of_float (num "items");
    median_s = num "median_s";
    p99_s = num "p99_s";
    throughput_per_s = num "throughput_per_s";
    telemetry;
  }

let of_json doc =
  match
    let got = get Json.to_str "file" "schema" doc in
    if got <> schema then bad "schema %S, expected %S" got schema;
    let host_cores = get Json.to_float "file" "host_cores" doc in
    if host_cores < 1.0 then bad "host_cores %g < 1" host_cores;
    let results = get Json.to_list "file" "results" doc in
    if results = [] then bad "empty results";
    let top = match doc with Json.Obj kvs -> kvs | _ -> [] in
    let reserved = [ "schema"; "suite"; "host_cores"; "quick"; "results" ] in
    {
      suite = get Json.to_str "file" "suite" doc;
      host_cores = int_of_float host_cores;
      quick = get Json.to_bool "file" "quick" doc;
      facts =
        List.filter (fun (k, _) -> not (List.mem k reserved)) top;
      rows = List.map row_of_json results;
    }
  with
  | f -> Ok f
  | exception Bad msg -> Error msg

let write path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json f)))

let read path =
  match Json.parse_file path with
  | Error _ as e -> e
  | Ok doc -> Result.map_error (fun m -> path ^ ": " ^ m) (of_json doc)

(* ---------- tables and diff ---------- *)

let print_rows ~title ?(extra = []) rows =
  let t =
    Table.create ~title
      ~headers:
        ([ "row"; "params"; "items"; "median [s]"; "p99 [s]"; "per s" ]
        @ List.map fst extra)
      ~aligns:
        (Table.Left :: Table.Left
        :: List.init (4 + List.length extra) (fun _ -> Table.Right))
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        ([
           r.name;
           params_label r;
           string_of_int r.items;
           Table.sci r.median_s;
           Table.sci r.p99_s;
           Printf.sprintf "%.0f" r.throughput_per_s;
         ]
        @ List.map (fun (_, cell) -> cell r) extra))
    rows;
  Table.print t

let diff ?min_ratio ?(sized = true) ~metric ~better value ~old now =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%s vs the old file (gain > 1 = better now%s)" metric
           (match min_ratio with
           | Some g -> Printf.sprintf "; gain >= %.2f passes" g
           | None -> ""))
      ~headers:[ "row"; "params"; "items"; "old"; "new"; "gain"; "" ]
      ~aligns:Table.[ Left; Left; Right; Right; Right; Right; Left ]
      ()
  in
  let regressions = ref [] in
  let pairs =
    List.filter_map
      (fun r -> Option.map (fun o -> (o, r)) (find old.rows r.name r.params))
      now.rows
  in
  List.iter
    (fun (o, r) ->
      match (value old o, value now r) with
      | Some ov, Some nv ->
          let gain =
            if sized && o.items <> r.items then None
            else
              let a, b = if better = `Higher then (nv, ov) else (ov, nv) in
              Some (if b > 0.0 then a /. b else Float.infinity)
          in
          let verdict =
            match (gain, min_ratio) with
            | None, _ -> "size differs"
            | Some g, Some min when g < min ->
                regressions :=
                  Printf.sprintf "%s: %s %.4g -> %.4g (gain %.2f < %.2f)"
                    (label r) metric ov nv g min
                  :: !regressions;
                "REGRESSED"
            | Some _, Some _ -> "ok"
            | Some _, None -> ""
          in
          Table.add_row t
            [
              r.name;
              params_label r;
              (if o.items = r.items then string_of_int r.items
               else Printf.sprintf "%d/%d" o.items r.items);
              Printf.sprintf "%.4g" ov;
              Printf.sprintf "%.4g" nv;
              Option.fold ~none:"-" ~some:(Printf.sprintf "%.2fx") gain;
              verdict;
            ]
      | _ -> ())
    pairs;
  if pairs = [] then
    Printf.printf
      "== %s: no row of the old file has the same name and params ==\n" metric
  else Table.print t;
  List.rev !regressions

(* ---------- gates ---------- *)

type gate = string * (file -> string list)

let check gates f =
  List.concat_map (fun (name, g) -> List.map (fun v -> (name, v)) (g f)) gates
