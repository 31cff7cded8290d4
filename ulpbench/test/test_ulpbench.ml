module Pct = Ulpbench.Pct
module Span = Ulpbench.Span
module Payload = Ulpbench.Payload
module C = Ulpbench.Client_loop

let test_percentile_support () =
  let beyond n num den = n - Pct.rank ~n ~num ~den in
  Alcotest.(check int) "p99 of 1000 leaves 10" 10 (beyond 1000 99 100);
  Alcotest.(check int) "rank rounds up" 991 (Pct.rank ~n:1001 ~num:99 ~den:100);
  Alcotest.(check int) "rank is at least 1" 1 (Pct.rank ~n:1 ~num:0 ~den:1);
  Alcotest.(check bool) "p99 of 1000" true (Pct.supported ~n:1000 ~num:99 ~den:100);
  Alcotest.(check bool) "p99 of 999" false (Pct.supported ~n:999 ~num:99 ~den:100);
  Alcotest.(check bool) "p50 of 20" true (Pct.supported ~n:20 ~num:1 ~den:2);
  Alcotest.(check bool) "p50 of 19" false (Pct.supported ~n:19 ~num:1 ~den:2)

let test_percentile_values () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Pct.at a ~num:1 ~den:2);
  Alcotest.(check int) "p99" 99 (Pct.at a ~num:99 ~den:100);
  Alcotest.(check int) "p0 is the minimum" 1 (Pct.at a ~num:0 ~den:1);
  Alcotest.(check int) "single sample" 7 (Pct.at [| 7 |] ~num:99 ~den:100);
  Alcotest.check_raises "empty" (Invalid_argument "Pct.at: no samples")
    (fun () -> ignore (Pct.at [||] ~num:1 ~den:2))

let per t nm = List.assoc nm (Span.analyze t).Span.names

let test_span_self_time () =
  let t = Span.create 16 in
  let root = Span.record t Handler ~parent:(-1) ~req:0 ~t0:0 ~t1:100 in
  (* overlapping children cover [10, 50] and [60, 70]: 50 of 100 *)
  ignore (Span.record t Spawn ~parent:root ~req:0 ~t0:10 ~t1:40);
  ignore (Span.record t Adopt ~parent:root ~req:0 ~t0:30 ~t1:50);
  let c = Span.record t Coupled ~parent:root ~req:1 ~t0:60 ~t1:70 in
  ignore (Span.record t Body ~parent:c ~req:1 ~t0:62 ~t1:66);
  let rep = Span.analyze t in
  Alcotest.(check int) "nested" 0 rep.Span.not_nested;
  Alcotest.(check int) "no negative self" 0 rep.Span.negative_self;
  Alcotest.(check (array int)) "handler self" [| 50 |]
    (per t Handler).Span.self_ns;
  Alcotest.(check (array int)) "coupled self" [| 6 |]
    (per t Coupled).Span.self_ns;
  Alcotest.(check (array int)) "handoff = round trip - body" [| 6 |]
    rep.Span.handoff_ns;
  Alcotest.(check int) "empty names count 0" 0 (per t Write_all).Span.count

let test_span_integrity () =
  let t = Span.create 8 in
  let p = Span.record t Service ~parent:(-1) ~req:0 ~t0:0 ~t1:10 in
  ignore (Span.record t Write_all ~parent:p ~req:0 ~t0:5 ~t1:25);
  let open_span = Span.start t Body ~parent:(-1) ~req:0 in
  Alcotest.(check bool) "claimed a slot" true (open_span >= 0);
  let rep = Span.analyze t in
  Alcotest.(check int) "child leaks out of its parent" 1 rep.Span.not_nested;
  Alcotest.(check int) "so the parent's self time is negative" 1
    rep.Span.negative_self;
  Alcotest.(check int) "unfinished" 1 rep.Span.unfinished

let test_span_capacity () =
  let off = Span.create 0 in
  Alcotest.(check bool) "disabled" false (Span.enabled off);
  Alcotest.(check int) "disabled start" (-1)
    (Span.start off Handler ~parent:(-1) ~req:0);
  Span.finish off (-1);
  let t = Span.create 2 in
  for _ = 1 to 3 do
    Span.finish t (Span.start t Handler ~parent:(-1) ~req:0)
  done;
  Alcotest.(check int) "recorded" 2 (Span.recorded t);
  Alcotest.(check int) "dropped" 1 (Span.dropped t)

let test_payload () =
  let fill ~seed ~stream ~seq =
    let b = Bytes.create 64 in
    Payload.fill b ~seed ~stream ~seq;
    b
  in
  let a = fill ~seed:1 ~stream:0 ~seq:0 in
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal a (fill ~seed:1 ~stream:0 ~seq:0));
  Alcotest.(check bool) "seed matters" false
    (Bytes.equal a (fill ~seed:2 ~stream:0 ~seq:0));
  Alcotest.(check bool) "stream matters" false
    (Bytes.equal a (fill ~seed:1 ~stream:1 ~seq:0));
  Alcotest.(check bool) "seq matters" false
    (Bytes.equal a (fill ~seed:1 ~stream:0 ~seq:1))

(* A trivial blocking echo server: one thread per connection. *)
let echo_server () =
  let l = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt l Unix.SO_REUSEADDR true;
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 64;
  let port =
    match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let serve fd =
    let b = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd b 0 4096 with
      | 0 -> ()
      | n ->
          ignore (Unix.write fd b 0 n);
          go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ();
    Unix.close fd
  in
  ignore
    (Thread.create
       (fun () ->
         while true do
           let fd, _ = Unix.accept ~cloexec:true l in
           ignore (Thread.create serve fd)
         done)
       ());
  port

let test_closed_loop workload () =
  let port = echo_server () in
  let ctl = C.control () in
  let threads = 2 in
  let phases =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        C.set ctl C.Measure;
        Thread.delay 0.2;
        C.set ctl C.Stop)
      ()
  in
  let rs = C.run ctl ~port ~workload ~seed:3 ~threads in
  Thread.join phases;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  Alcotest.(check int) "no failures" 0 (sum (fun r -> r.C.failed));
  Alcotest.(check (list string)) "no errors" []
    (List.concat_map (fun r -> r.C.errors) rs);
  Alcotest.(check bool) "window completed requests" true
    (sum (fun r -> r.C.w_completed) > 0);
  Alcotest.(check bool) "warm-up ran before the window" true
    (sum (fun r -> r.C.attempted) > sum (fun r -> r.C.w_attempted));
  Alcotest.(check int) "one latency per completed window request"
    (sum (fun r -> r.C.w_completed))
    (sum (fun r -> Array.length r.C.lat_ns));
  Alcotest.(check bool) "latencies positive" true
    (List.for_all (fun r -> Array.for_all (fun d -> d > 0) r.C.lat_ns) rs);
  let conns = sum (fun r -> r.C.conns) in
  match workload with
  | C.Churn ->
      Alcotest.(check int) "one connection per request"
        (sum (fun r -> r.C.attempted)) conns
  | C.Echo | C.Owc -> Alcotest.(check int) "one connection per thread" threads conns

let () =
  Alcotest.run "ulpbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "support rule" `Quick test_percentile_support;
          Alcotest.test_case "nearest rank" `Quick test_percentile_values;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time and handoff" `Quick test_span_self_time;
          Alcotest.test_case "integrity violations" `Quick test_span_integrity;
          Alcotest.test_case "capacity" `Quick test_span_capacity;
        ] );
      ("payload", [ Alcotest.test_case "seeded" `Quick test_payload ]);
      ( "client",
        [
          Alcotest.test_case "closed loop, echo" `Quick (test_closed_loop C.Echo);
          Alcotest.test_case "closed loop, churn" `Quick (test_closed_loop C.Churn);
        ] );
    ]
