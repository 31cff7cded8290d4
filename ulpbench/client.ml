(* The load process: a closed loop of [--threads] client domains over
   blocking sockets (Client_loop), phased by commands on stdin --
   "measure" opens the timed window, "stop" (or EOF) ends the run --
   and reported as one JSON object on stdout.  The window's latencies
   go to --lat-out, nanoseconds as little-endian int64s, so that runs
   spanning several server lives can pool them.

   Usage: client.exe --port P --workload W --seed S --threads N --lat-out F *)

module C = Ulpbench.Client_loop

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let port = ref 0 and workload = ref "" and seed = ref 0 and threads = ref 1 in
  let lat_out = ref "" in
  Arg.parse
    [
      ("--port", Arg.Set_int port, "server port");
      ("--workload", Arg.Set_string workload, "tenant_echo|tenant_churn|tenant_owc");
      ("--seed", Arg.Set_int seed, "payload seed");
      ("--threads", Arg.Set_int threads, "client domains");
      ("--lat-out", Arg.Set_string lat_out, "file for the window's latencies");
    ]
    (fun a -> raise (Arg.Bad a))
    "client.exe --port P --workload W --seed S --threads N --lat-out F";
  let wl =
    match C.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("client: unknown workload " ^ !workload);
        exit 2
  in
  let ctl = C.control () in
  let t_measure = ref 0 and t_stop = ref 0 in
  (* a control domain blocks in input_line while the client domains
     run *)
  let controller =
    Domain.spawn (fun () ->
        let rec go () =
          match input_line stdin with
          | "measure" ->
              t_measure := Ulpbench.Mono.now_ns ();
              C.set ctl C.Measure;
              go ()
          | "stop" -> ()
          | _ -> go ()
          | exception End_of_file -> ()
        in
        go ();
        t_stop := Ulpbench.Mono.now_ns ();
        C.set ctl C.Stop)
  in
  let rs = C.run ctl ~port:!port ~workload:wl ~seed:!seed ~threads:!threads in
  Domain.join controller;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let lat = Array.concat (List.map (fun r -> r.C.lat_ns) rs) in
  Out_channel.with_open_bin !lat_out (fun oc ->
      let b = Bytes.create 8 in
      Array.iter
        (fun ns ->
          Bytes.set_int64_le b 0 (Int64.of_int ns);
          Out_channel.output_bytes oc b)
        lat);
  let window_s =
    if !t_measure = 0 then 0. else float (!t_stop - !t_measure) /. 1e9
  in
  let owc =
    List.map
      (fun r ->
        let digest =
          if r.C.last_ok_seq < 0 then "null"
          else begin
            let b = Bytes.create (C.msg_bytes wl) in
            Ulpbench.Payload.fill b ~seed:!seed ~stream:r.C.key ~seq:r.C.last_ok_seq;
            Ulpbench.Json_out.string (Digest.to_hex (Digest.bytes b))
          end
        in
        Printf.sprintf "{\"key\": %d, \"md5\": %s}" r.C.key digest)
      rs
  in
  let errors = List.concat_map (fun r -> r.C.errors) rs in
  Printf.printf
    "{\"threads\": %d, \"window_s\": %.6f, \"attempted\": %d, \"failed\": %d, \
     \"w_attempted\": %d, \"w_completed\": %d, \"w_failed\": %d, \"conns\": %d, \
     \"lat_n\": %d, \"last\": [%s], \"errors\": [%s]}\n"
    !threads window_s
    (sum (fun r -> r.C.attempted))
    (sum (fun r -> r.C.failed))
    (sum (fun r -> r.C.w_attempted))
    (sum (fun r -> r.C.w_completed))
    (sum (fun r -> r.C.w_failed))
    (sum (fun r -> r.C.conns))
    (Array.length lat)
    (String.concat ", " owc)
    (String.concat ", " (List.map Ulpbench.Json_out.string errors))
