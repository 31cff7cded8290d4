(* Tests for the reporting helpers: ASCII tables, CSV escaping, and the
   terminal plots used by the figure harness. *)

module Table = Report.Table
module Csv = Report.Csv
module Plot = Report.Ascii_plot

(* naive substring check, good enough for tests *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains s needle =
  if not (contains s needle) then Alcotest.failf "missing %S in output" needle

(* ---------- table ---------- *)

let test_table_renders_all_cells () =
  let t =
    Table.create ~title:"T" ~headers:[ "name"; "value" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  List.iter (check_contains s) [ "T"; "name"; "value"; "alpha"; "beta"; "22" ]

let test_table_rejects_bad_row () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "b" ] () in
  match Table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "wrong arity accepted"

let test_table_rejects_bad_aligns () =
  match Table.create ~title:"T" ~headers:[ "a"; "b" ] ~aligns:[ Table.Left ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad aligns accepted"

let test_table_column_width_consistent () =
  let t = Table.create ~title:"T" ~headers:[ "h" ] () in
  Table.add_row t [ "short" ];
  Table.add_row t [ "a much longer cell" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
      lines
  in
  match widths with
  | [] -> Alcotest.fail "no rows rendered"
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest

let test_sci_format () =
  Alcotest.(check string) "sci" "1.50E-07" (Table.sci 1.50e-7);
  Alcotest.(check string) "nan" "-" (Table.sci Float.nan);
  Alcotest.(check string) "fixed" "3.1" (Table.fixed ~digits:1 3.14159)

(* ---------- csv ---------- *)

let test_csv_plain () =
  Alcotest.(check string) "simple" "a,b\n1,2\n"
    (Csv.to_string ~headers:[ "a"; "b" ] [ [ "1"; "2" ] ])

let test_csv_escaping () =
  let s = Csv.row_to_string [ "has,comma"; "has\"quote"; "plain" ] in
  Alcotest.(check string) "escaped" "\"has,comma\",\"has\"\"quote\",plain" s

let test_csv_newline_escaped () =
  let s = Csv.row_to_string [ "two\nlines" ] in
  Alcotest.(check string) "quoted" "\"two\nlines\"" s

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "ulp" ".csv" in
  Csv.write_file path ~headers:[ "x" ] [ [ "1" ]; [ "2" ] ];
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content" "x\n1\n2\n" content

(* ---------- plot ---------- *)

let test_plot_renders_series () =
  let s =
    Plot.render ~title:"demo"
      [
        Plot.series ~label:"up" ~glyph:'u' [ (1.0, 1.0); (2.0, 2.0); (4.0, 3.0) ];
        Plot.series ~label:"down" ~glyph:'d' [ (1.0, 3.0); (2.0, 2.0); (4.0, 1.0) ];
      ]
  in
  List.iter (check_contains s) [ "demo"; "u = up"; "d = down" ];
  Alcotest.(check bool) "has glyphs" true (contains s "u" && contains s "d")

let test_plot_empty () =
  Alcotest.(check string) "empty" "(empty plot)\n" (Plot.render [])

let test_plot_flat_series_no_crash () =
  let s = Plot.render [ Plot.series ~label:"flat" ~glyph:'f' [ (1.0, 5.0); (2.0, 5.0) ] ] in
  check_contains s "f = flat"

let test_plot_size_labels () =
  let s =
    Plot.render
      [ Plot.series ~label:"x" ~glyph:'x' [ (1024.0, 1.0); (1048576.0, 2.0) ] ]
  in
  check_contains s "1K";
  check_contains s "1M"

(* ---------- timeline ---------- *)

module Timeline = Report.Timeline

let test_timeline_lanes_and_legend () =
  let s =
    Timeline.render
      [
        Timeline.event ~time:0.0 ~actor:"kc0" ~tag:"start";
        Timeline.event ~time:1.0 ~actor:"kc1" ~tag:"work";
        Timeline.event ~time:2.0 ~actor:"kc0" ~tag:"stop";
      ]
  in
  List.iter (check_contains s)
    [ "kc0"; "kc1"; "a = start"; "b = work"; "c = stop" ]

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(empty timeline)\n" (Timeline.render [])

let test_timeline_single_instant () =
  (* zero time span must not divide by zero *)
  let s =
    Timeline.render [ Timeline.event ~time:5.0 ~actor:"x" ~tag:"only" ]
  in
  check_contains s "a = only"

let test_timeline_collision_marker () =
  let s =
    Timeline.render ~width:4
      [
        Timeline.event ~time:0.0 ~actor:"x" ~tag:"one";
        Timeline.event ~time:0.0 ~actor:"x" ~tag:"two";
      ]
  in
  check_contains s "*"

(* ---------- json printer ---------- *)

module Json = Report.Json
module Bench = Report.Bench

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("quote", Json.Str "say \"hi\"");
        ("backslash", Json.Str "C:\\tmp\\");
        ("tab", Json.Str "a\tb");
        ("control", Json.Str "bell\007 nul\000 esc\027");
        ( "nested",
          Json.Obj
            [ ("inner", Json.Obj [ ("deep", Json.List [ Json.Num 1.0; Json.Null ]) ]) ]
        );
        ( "floats",
          Json.List
            (List.map
               (fun f -> Json.Num f)
               [ 0.1; 1e-9; 1275833.916; -2.5e300; 0.015676022 ]) );
        ( "rows",
          Json.List
            [ Json.Obj [ ("a", Json.Bool true) ]; Json.Obj [ ("b", Json.Bool false) ] ]
        );
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "parse (to_string v) = v" true (Json.parse s = v);
  Alcotest.(check bool) "stable" true (Json.to_string (Json.parse s) = s);
  check_contains s {|"control": "bell\u0007 nul\u0000 esc\u001b"|};
  check_contains s {|"tab": "a\u0009b"|};
  check_contains s
    {|"floats": [0.1, 1e-09, 1275833.916, -2.5e+300, 0.015676022]|};
  (* one field per line; array-of-object elements one per line; nested
     objects inline *)
  check_contains s "\n  \"nested\": {\"inner\": {\"deep\": [1, null]}},\n";
  check_contains s
    "\n  \"rows\": [\n    {\"a\": true},\n    {\"b\": false}\n  ]\n}\n"

(* ---------- bench rows, diff, gates ---------- *)

let row ?(items = 100) name domains median_s =
  {
    Bench.name;
    params = [ ("domains", Json.Num (float_of_int domains)) ];
    items;
    median_s;
    p99_s = median_s;
    throughput_per_s = float_of_int items /. median_s;
    telemetry =
      [ ("oversubscribed", Json.Bool false); ("parks", Json.Num 3.0) ];
  }

let file rows =
  {
    Bench.suite = "parallel";
    host_cores = 2;
    quick = false;
    facts = [ ("warmup", Json.Num 1.0) ];
    rows;
  }

let speedup (f : Bench.file) (r : Bench.row) =
  Option.map
    (fun (b : Bench.row) -> b.median_s /. r.median_s)
    (if r.params = [ ("domains", Json.Num 1.0) ] then None
     else Bench.peer f.rows r ("domains", Json.Num 1.0))

let test_bench_json_roundtrip () =
  let f = file [ row "a" 1 0.5; row "a" 2 0.25 ] in
  (match Bench.of_json (Json.parse (Json.to_string (Bench.to_json f))) with
  | Ok f' -> Alcotest.(check bool) "same file" true (f' = f)
  | Error e -> Alcotest.fail e);
  let v4 = Json.Obj [ ("schema", Json.Str "ulp-pip/parallel-bench/v4") ] in
  match Bench.of_json v4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an older schema must not read"

let median_gate ~old now =
  Bench.diff ~min_ratio:0.8 ~metric:"median_s" ~better:`Lower
    (fun _ r -> Some r.Bench.median_s)
    ~old now

let test_diff_keys_on_name_and_params () =
  let old = file [ row "a" 1 1.0; row "a" 2 1.0; row "b" 2 1.0 ] in
  (* a@2 doubles; a@4 and c@2 have no old row, so their times count
     for nothing *)
  let now =
    file [ row "a" 1 1.0; row "a" 2 2.0; row "a" 4 9.0; row "c" 2 9.0 ]
  in
  match median_gate ~old now with
  | [ msg ] -> check_contains msg "a[domains=2]"
  | l -> Alcotest.failf "want one regression, got %d" (List.length l)

let test_diff_size_differs () =
  let old = file [ row ~items:10_000 "a" 1 1.0 ] in
  let now = file [ row ~items:1_000 "a" 1 9.0 ] in
  Alcotest.(check (list string)) "sized metric: no ratio across sizes" []
    (median_gate ~old now);
  Alcotest.(check int) "unsized metric still compares" 1
    (List.length
       (Bench.diff ~min_ratio:0.8 ~sized:false ~metric:"median_s"
          ~better:`Lower
          (fun _ r -> Some r.Bench.median_s)
          ~old now))

let test_gate_runner_names_violations () =
  let old =
    file [ row "a" 1 1.0; row "a" 2 0.5; row "b" 1 1.0; row "b" 2 0.5 ]
  in
  (* seed one regression: b@2's speedup falls from 2.0x to 1.0x *)
  let now =
    file [ row "a" 1 1.0; row "a" 2 0.5; row "b" 1 1.0; row "b" 2 1.0 ]
  in
  let gates =
    [
      ("always-fine", fun _ -> []);
      ( "speedup-regression",
        fun f ->
          Bench.diff ~min_ratio:0.8 ~sized:false ~metric:"speedup"
            ~better:`Higher speedup ~old f );
    ]
  in
  (match Bench.check gates now with
  | [ ("speedup-regression", msg) ] -> check_contains msg "b[domains=2]"
  | vs ->
      Alcotest.failf "want exactly one named violation, got %d"
        (List.length vs));
  Alcotest.(check int) "the old file passes" 0
    (List.length (Bench.check gates old))

(* ---------- properties ---------- *)

let prop_csv_field_count_preserved =
  QCheck.Test.make ~name:"csv keeps one line per row" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 10) (list_of_size (Gen.int_range 1 4) printable_string))
    (fun rows ->
      (* normalize: line breaks inside fields become spaces *)
      let clean c = if c = '\n' || c = '\r' then ' ' else c in
      let rows = List.map (List.map (String.map clean)) rows in
      QCheck.assume (List.for_all (fun r -> r <> []) rows);
      let widths = List.map List.length rows in
      match List.sort_uniq compare widths with
      | [ w ] when w > 0 ->
          let headers = List.init w (fun i -> Printf.sprintf "h%d" i) in
          let s = Csv.to_string ~headers rows in
          (* the writer terminates with a newline: line count = splits - 1 *)
          List.length (String.split_on_char '\n' s) - 1 = List.length rows + 1
      | _ -> QCheck.assume_fail ())

let prop_table_render_never_raises =
  QCheck.Test.make ~name:"table renders any cell strings" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 6) (pair printable_string printable_string))
    (fun rows ->
      let t = Table.create ~title:"p" ~headers:[ "a"; "b" ] () in
      List.iter
        (fun (a, b) ->
          let clean s = String.map (fun c -> if c = '\n' then ' ' else c) s in
          Table.add_row t [ clean a; clean b ])
        rows;
      String.length (Table.render t) > 0)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "renders cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "rejects bad row" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "rejects bad aligns" `Quick
            test_table_rejects_bad_aligns;
          Alcotest.test_case "column widths" `Quick
            test_table_column_width_consistent;
          Alcotest.test_case "sci format" `Quick test_sci_format;
        ] );
      ( "csv",
        [
          Alcotest.test_case "plain" `Quick test_csv_plain;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "newline" `Quick test_csv_newline_escaped;
          Alcotest.test_case "file roundtrip" `Quick test_csv_file_roundtrip;
        ] );
      ( "plot",
        [
          Alcotest.test_case "renders series" `Quick test_plot_renders_series;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "flat series" `Quick test_plot_flat_series_no_crash;
          Alcotest.test_case "size labels" `Quick test_plot_size_labels;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "lanes and legend" `Quick
            test_timeline_lanes_and_legend;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
          Alcotest.test_case "single instant" `Quick
            test_timeline_single_instant;
          Alcotest.test_case "collision marker" `Quick
            test_timeline_collision_marker;
        ] );
      ( "json",
        [ Alcotest.test_case "to_string/parse round trip" `Quick test_json_roundtrip ] );
      ( "bench",
        [
          Alcotest.test_case "row JSON round trip" `Quick test_bench_json_roundtrip;
          Alcotest.test_case "diff keys on name and params" `Quick
            test_diff_keys_on_name_and_params;
          Alcotest.test_case "diff: size differs" `Quick test_diff_size_differs;
          Alcotest.test_case "gate runner names violations" `Quick
            test_gate_runner_names_violations;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_csv_field_count_preserved;
          QCheck_alcotest.to_alcotest prop_table_render_never_raises;
        ] );
    ]
