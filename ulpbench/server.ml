(* The server under test: the paper's one-ULP-per-connection topology
   (examples/multi_tenant.ml) built only from the public APIs of
   lib/net, lib/proc and lib/fiber_rt, at the runtime's defaults --
   Reactor.create and run_parallel get no backend, shard or domain
   override, so a change of default shows in the numbers.

   Per connection the Tcp_server handler detaches the socket, spawns a
   child ULP that adopts it into its private fd table and serves it,
   and reaps the child with waitpid.  Per request the tenant reads one
   message, (tenant_owc) stores it in its file by open-write-close
   inside Blt_rt.coupled, and echoes it with Proc.Io.write_all.

   With --trace 1 each of those calls is wrapped in a span (Span);
   the analysis and the span dump happen after the run.

   Control is a line protocol on stdin, read by the main fiber through
   Fiber_io: "mark" snapshots the counters (the first two marks bound
   the timed window), "idle" waits until every connection and tenant
   is gone, "quit" (or EOF) drains and stops the server.  The last
   line on stdout is the report, one JSON object.

   Usage: server.exe --workload W [--trace 0|1] [--data-dir D] [--spans F] *)

module Fiber = Fiber_rt.Fiber
module Blt_rt = Fiber_rt.Blt_rt
module Reactor = Net.Reactor
module Fiber_io = Net.Fiber_io
module Tcp = Net.Tcp_server
module C = Ulpbench.Client_loop
module Span = Ulpbench.Span
module Pct = Ulpbench.Pct

let span_capacity = 1 lsl 20

(* churn's tenant reads carry a deadline that never fires: it puts a
   timer-wheel insert and cancel on the per-connection path *)
let idle_deadline_s = 30.0
let idle_wait_s = 10.0

type cfg = { workload : C.workload; data_dir : string; tr : Span.t }

let served = Atomic.make 0
let ids = Atomic.make 0
let spawns = Atomic.make 0
let tenant_failures = Atomic.make 0
let first_error : string option Atomic.t = Atomic.make None

(* (original KC thread id, failures recorded on it), per tenant that
   made coupled calls *)
let kcs : (int * int) list Atomic.t = Atomic.make []

let rec push cell x =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (x :: l)) then push cell x

(* Runs on the tenant's executor thread: the blocking syscalls the
   coupled section exists for.  No O_TRUNC -- each write replaces the
   whole file in place. *)
let write_file path buf =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if Unix.write fd buf 0 (Bytes.length buf) <> Bytes.length buf then
        failwith "short write")

let serve_tenant cfg r u vfd ~h =
  let tr = cfg.tr in
  let len = C.msg_bytes cfg.workload in
  let buf = Bytes.create len in
  let path =
    match cfg.workload with
    | C.Owc ->
        let key = Bytes.create 4 in
        Proc.Io.read_exact r u vfd key 0 4;
        Some
          (Filename.concat cfg.data_dir
             (Printf.sprintf "tenant_%ld" (Bytes.get_int32_le key 0)))
    | C.Echo | C.Churn -> None
  in
  let rec loop reqs =
    Proc.check u;
    let deadline =
      if cfg.workload = C.Churn then Some (Reactor.now () +. idle_deadline_s)
      else None
    in
    match Proc.Io.read r u ?deadline vfd buf 0 len with
    | 0 -> reqs
    | n ->
        if n < len then Proc.Io.read_exact r u ?deadline vfd buf n (len - n);
        let req = Atomic.fetch_and_add ids 1 in
        let s = Span.start tr Service ~parent:h ~req in
        Option.iter
          (fun path ->
            let c = Span.start tr Coupled ~parent:s ~req in
            Blt_rt.coupled (fun () ->
                let b = Span.start tr Body ~parent:c ~req in
                write_file path buf;
                Span.finish tr b);
            Span.finish tr c)
          path;
        let w = Span.start tr Write_all ~parent:s ~req in
        Proc.Io.write_all r u vfd buf 0 len;
        Span.finish tr w;
        Span.finish tr s;
        Atomic.incr served;
        (* a churn tenant closes first, after its one request; the
           client answers with a reset (Client_loop), so no TIME_WAIT
           outlives the run *)
        if cfg.workload = C.Churn then reqs + 1 else loop (reqs + 1)
  in
  let reqs = loop 0 in
  if path <> None && reqs > 0 then
    push kcs (Blt_rt.original_kc_thread_id (), Blt_rt.kc_failures ())

let handler cfg root r (c : Tcp.conn) =
  let tr = cfg.tr in
  let conn = Atomic.fetch_and_add ids 1 in
  let h = Span.start tr Handler ~parent:(-1) ~req:conn in
  Tcp.detach c;
  let sp = Span.start tr Spawn ~parent:h ~req:conn in
  let child =
    Proc.spawn ~parent:root (fun u ->
        try
          let a = Span.start tr Adopt ~parent:h ~req:conn in
          let vfd = Proc.Io.adopt u c.Tcp.fd in
          Span.finish tr a;
          serve_tenant cfg r u vfd ~h
        with e ->
          ignore
            (Atomic.compare_and_set first_error None
               (Some (Printexc.to_string e)));
          raise e)
  in
  Span.finish tr sp;
  Atomic.incr spawns;
  let wp = Span.start tr Waitpid ~parent:h ~req:conn in
  (match Proc.waitpid ~parent:root ~vpid:(Proc.getpid child) with
  | Ok (Proc.Exited 0) -> ()
  | Ok _ | Error `Echild -> Atomic.incr tenant_failures);
  Span.finish tr wp;
  Span.finish tr h

type snap = {
  at_ns : int;
  served_at : int;
  sched : Fiber.Sched_stats.t option;
  reactor : Reactor.stats;
}

let snapshot r =
  {
    at_ns = Ulpbench.Mono.now_ns ();
    served_at = Atomic.get served;
    sched = Fiber.sched_stats ();
    reactor = Reactor.stats r;
  }

type final = {
  port : int;
  domains : int;
  marks : snap list;  (** in order *)
  tcp : Tcp.stats;
  live_after : int;
}

let reply r s =
  let b = Bytes.of_string s in
  Fiber_io.write_all r Unix.stdout b 0 (Bytes.length b)

(* Lines from stdin, parked on the reactor between reads. *)
let control r ~on_line =
  let chunk = Bytes.create 256 and pending = Buffer.create 64 in
  let rec go () =
    match Fiber_io.read r Unix.stdin chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        let rec lines s =
          match String.index_opt s '\n' with
          | None ->
              Buffer.add_string pending s;
              true
          | Some i ->
              let line = Buffer.contents pending ^ String.sub s 0 i in
              Buffer.clear pending;
              on_line (String.trim line)
              && lines (String.sub s (i + 1) (String.length s - i - 1))
        in
        if lines (Bytes.sub_string chunk 0 n) then go ()
  in
  go ()

let serve cfg r w =
  let root = Proc.root w in
  let srv =
    Tcp.start ~reactor:r
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ~handler:(handler cfg root) ()
  in
  Fiber_io.set_nonblock Unix.stdin;
  Fiber_io.set_nonblock Unix.stdout;
  reply r (Printf.sprintf "LISTEN %d\n" (Tcp.port srv));
  let marks = ref [] in
  control r ~on_line:(function
    | "mark" ->
        marks := snapshot r :: !marks;
        reply r "MARK\n";
        true
    | "idle" ->
        let give_up = Reactor.now () +. idle_wait_s in
        while
          (Tcp.active srv > 0 || Proc.live_procs w > 1)
          && Reactor.now () < give_up
        do
          Reactor.sleep r 0.001
        done;
        reply r
          (Printf.sprintf "IDLE %d %d\n" (Tcp.active srv) (Proc.live_procs w));
        true
    | "quit" -> false
    | _ -> true);
  Tcp.stop srv;
  {
    port = Tcp.port srv;
    domains = Option.value (Fiber.num_workers ()) ~default:1;
    marks = List.rev !marks;
    tcp = Tcp.stats srv;
    live_after = Proc.live_procs w;
  }

(* ---- the report ---- *)

let us ns = Printf.sprintf "%.3f" (float ns /. 1e3)

(* the median of whatever was recorded; a tail only where at least
   Pct.min_beyond samples lie beyond it *)
let p50_us a = if Array.length a = 0 then "null" else us (Pct.at a ~num:1 ~den:2)

let p99_us a =
  if Pct.supported ~n:(Array.length a) ~num:99 ~den:100 then
    us (Pct.at a ~num:99 ~den:100)
  else "null"

let window_json = function
  | a :: b :: _ ->
      let d f = f b.reactor - f a.reactor in
      let sched =
        match (a.sched, b.sched) with
        | Some x, Some y ->
            let open Fiber.Sched_stats in
            let diff =
              {
                y with
                steals = y.steals - x.steals;
                steal_attempts = y.steal_attempts - x.steal_attempts;
                steal_fails = y.steal_fails - x.steal_fails;
                parks = y.parks - x.parks;
                deep_parks = y.deep_parks - x.deep_parks;
                wakes = y.wakes - x.wakes;
                spins = y.spins - x.spins;
                inj_drains = y.inj_drains - x.inj_drains;
                active_hist =
                  Array.mapi
                    (fun i v ->
                      v - if i < Array.length x.active_hist then x.active_hist.(i) else 0)
                    y.active_hist;
              }
            in
            Printf.sprintf
              "{\"parks\": %d, \"deep_parks\": %d, \"wakes\": %d, \"spins\": %d, \
               \"inj_drains\": %d, \"steal_attempts\": %d, \"steal_fails\": %d, \
               \"steal_fail_rate\": %.6f, \"active_workers_p50\": %d}"
              diff.parks diff.deep_parks diff.wakes diff.spins diff.inj_drains
              diff.steal_attempts diff.steal_fails (steal_fail_rate diff)
              (active_p50 diff)
        | _ -> "null"
      in
      Printf.sprintf
        "{\"seconds\": %.6f, \"served\": %d, \"polls\": %d, \"wakeups\": %d, \
         \"timers_fired\": %d, \"reactor_errors\": %d, \"sched\": %s}"
        (float (b.at_ns - a.at_ns) /. 1e9)
        (b.served_at - a.served_at)
        (d (fun s -> s.Reactor.polls))
        (d (fun s -> s.Reactor.wakeups))
        (d (fun s -> s.Reactor.timers_fired))
        (d (fun s -> s.Reactor.errors))
        sched
  | _ -> "null"

let trace_json tr =
  if not (Span.enabled tr) then "null"
  else begin
    let rep = Span.analyze tr in
    let names =
      List.map
        (fun (nm, p) ->
          Printf.sprintf
            "\"%s\": {\"count\": %d, \"p50_us\": %s, \"p99_us\": %s, \
             \"self_p50_us\": %s}"
            (Span.to_string nm) p.Span.count
            (p50_us p.Span.dur_ns) (p99_us p.Span.dur_ns)
            (p50_us p.Span.self_ns))
        rep.Span.names
    in
    Printf.sprintf
      "{\"recorded\": %d, \"dropped\": %d, \"unfinished\": %d, \
       \"not_nested\": %d, \"negative_self\": %d, \"handoff_p50_us\": %s, \
       \"spans\": {%s}}"
      (Span.recorded tr) (Span.dropped tr) rep.Span.unfinished
      rep.Span.not_nested rep.Span.negative_self
      (p50_us rep.Span.handoff_ns)
      (String.concat ", " names)
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and trace = ref 0 and data_dir = ref "." in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "tenant_echo|tenant_churn|tenant_owc");
      ("--trace", Arg.Set_int trace, "1 records spans");
      ("--data-dir", Arg.Set_string data_dir, "where tenant_owc tenants keep files");
      ("--spans", Arg.Set_string spans, "file for the span dump (--trace 1)");
    ]
    (fun a -> raise (Arg.Bad a))
    "server.exe --workload W [--trace 0|1] [--data-dir D] [--spans F]";
  let workload =
    match C.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("server: unknown workload " ^ !workload);
        exit 2
  in
  let tr = Span.create (if !trace = 1 then span_capacity else 0) in
  let cfg = { workload; data_dir = !data_dir; tr } in
  let r = Reactor.create () in
  let w = Proc.boot () in
  let final = ref None in
  Fiber.run_parallel (fun () -> final := Some (serve cfg r w));
  Reactor.shutdown r;
  Unix.clear_nonblock Unix.stdout;
  let f = Option.get !final in
  if !spans <> "" && Span.enabled tr then
    Out_channel.with_open_text !spans (fun oc -> Span.dump tr oc);
  let kcs = Atomic.get kcs in
  Printf.printf
    "{\"port\": %d, \"ocaml\": \"%s\", \"backend\": \"%s\", \"shards\": %d, \
     \"domains\": %d, \"listeners\": %d, \"reuseport\": %b, \"accepted\": %d, \
     \"completed\": %d, \"tcp_failed\": %d, \"accept_retries\": %d, \
     \"spawns\": %d, \"served\": %d, \"tenant_failures\": %d, \
     \"first_error\": %s, \"live_procs_after\": %d, \"kcs\": %d, \
     \"kc_failures\": %d, \"window\": %s, \"trace\": %s}\n"
    f.port Sys.ocaml_version
    (match Reactor.backend r with
    | `Epoll -> "epoll"
    | `Poll -> "poll"
    | `Select -> "select")
    (Reactor.shard_count r) f.domains f.tcp.Tcp.listeners f.tcp.Tcp.reuseport
    f.tcp.Tcp.accepted f.tcp.Tcp.completed f.tcp.Tcp.failed
    f.tcp.Tcp.accept_retries (Atomic.get spawns) (Atomic.get served)
    (Atomic.get tenant_failures)
    (match Atomic.get first_error with
    | None -> "null"
    | Some e -> Ulpbench.Json_out.string e)
    f.live_after
    (List.length (List.sort_uniq compare (List.map fst kcs)))
    (List.fold_left (fun acc (_, n) -> acc + n) 0 kcs)
    (window_json f.marks) (trace_json tr)
