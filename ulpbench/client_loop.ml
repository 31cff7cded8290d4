type workload = Echo | Churn | Owc

let workload_of_string = function
  | "tenant_echo" | "echo" -> Some Echo
  | "tenant_churn" | "churn" -> Some Churn
  | "tenant_owc" | "owc" -> Some Owc
  | _ -> None

let msg_bytes = function Owc -> 4096 | Echo | Churn -> 64

type phase = Warm | Measure | Stop
type control = phase Atomic.t

let control () = Atomic.make Warm
let set c p = Atomic.set c p

type thread_result = {
  key : int;
  attempted : int;
  failed : int;
  w_attempted : int;
  w_completed : int;
  w_failed : int;
  conns : int;
  lat_ns : int array;
  last_ok_seq : int;
  errors : string list;
}

exception Corrupt_echo

let max_errors = 5

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  with e ->
    Unix.close fd;
    raise e

let rec write_all fd b off len =
  if len > 0 then
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)

let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise End_of_file
    | k -> read_exact fd b (off + k) (len - k)

let hello key =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int key);
  b

let thread ctl ~port ~workload ~seed ~key =
  let len = msg_bytes workload in
  let sent = Bytes.create len and got = Bytes.create len in
  let lat = ref (Array.make 65536 0) and nlat = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let w_attempted = ref 0 and w_completed = ref 0 and w_failed = ref 0 in
  let conns = ref 0 and last_ok = ref (-1) and errors = ref [] in
  let conn = ref None in
  let drop () =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
    conn := None
  in
  let open_conn () =
    incr conns;
    let fd = connect port in
    if workload = Owc then begin
      try write_all fd (hello key) 0 4
      with e ->
        Unix.close fd;
        raise e
    end;
    fd
  in
  let seq = ref 0 in
  let rec loop () =
    let ph = Atomic.get ctl in
    if ph <> Stop then begin
      let in_window = ph = Measure in
      Payload.fill sent ~seed ~stream:key ~seq:!seq;
      incr attempted;
      if in_window then incr w_attempted;
      let t0 = Mono.now_ns () in
      (match
         let fd =
           match (workload, !conn) with
           | Churn, _ | _, None ->
               let fd = open_conn () in
               conn := Some fd;
               fd
           | _, Some fd -> fd
         in
         write_all fd sent 0 len;
         read_exact fd got 0 len;
         if not (Bytes.equal sent got) then raise Corrupt_echo;
         if workload = Churn then begin
           (* the server closed first after its echo; a reset instead
              of a FIN leaves no TIME_WAIT on either side, so
              back-to-back runs neither exhaust the ephemeral ports nor
              fill the kernel's TIME_WAIT table *)
           Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
           conn := None;
           Unix.close fd
         end
       with
      | () ->
          let dt = Mono.now_ns () - t0 in
          last_ok := !seq;
          if in_window then begin
            incr w_completed;
            if !nlat = Array.length !lat then begin
              let bigger = Array.make (2 * !nlat) 0 in
              Array.blit !lat 0 bigger 0 !nlat;
              lat := bigger
            end;
            !lat.(!nlat) <- dt;
            incr nlat
          end
      | exception e ->
          drop ();
          incr failed;
          if in_window then incr w_failed;
          if List.length !errors < max_errors then
            errors := Printf.sprintf "seq %d: %s" !seq (Printexc.to_string e) :: !errors);
      incr seq;
      loop ()
    end
  in
  loop ();
  drop ();
  {
    key;
    attempted = !attempted;
    failed = !failed;
    w_attempted = !w_attempted;
    w_completed = !w_completed;
    w_failed = !w_failed;
    conns = !conns;
    lat_ns = Array.sub !lat 0 !nlat;
    last_ok_seq = !last_ok;
    errors = List.rev !errors;
  }

let run ctl ~port ~workload ~seed ~threads =
  List.init threads (fun key ->
      Domain.spawn (fun () -> thread ctl ~port ~workload ~seed ~key))
  |> List.map Domain.join
