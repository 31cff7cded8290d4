module A = Bigarray.Array1

type name = Handler | Spawn | Adopt | Waitpid | Service | Write_all | Coupled | Body

let all = [ Handler; Spawn; Adopt; Waitpid; Service; Write_all; Coupled; Body ]

let to_int = function
  | Handler -> 0
  | Spawn -> 1
  | Adopt -> 2
  | Waitpid -> 3
  | Service -> 4
  | Write_all -> 5
  | Coupled -> 6
  | Body -> 7

let of_int i = List.nth all i

let to_string = function
  | Handler -> "tcp.handler"
  | Spawn -> "proc.spawn"
  | Adopt -> "proc_io.adopt"
  | Waitpid -> "proc.waitpid"
  | Service -> "server.service"
  | Write_all -> "proc_io.write_all"
  | Coupled -> "blt_rt.coupled"
  | Body -> "blt_rt.body"

type cells = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* Bigarrays rather than int arrays: the major GC never scans them, so
   a large buffer does not slow the run it traces. *)
type t = {
  cap : int;
  next : int Atomic.t;
  nm : cells;
  parent : cells;
  req : cells;
  t0 : cells;
  t1 : cells;
}

let create cap =
  let cells () = A.create Bigarray.int Bigarray.c_layout cap in
  let t1 = cells () in
  A.fill t1 (-1);
  {
    cap;
    next = Atomic.make 0;
    nm = cells ();
    parent = cells ();
    req = cells ();
    t0 = cells ();
    t1;
  }

let enabled t = t.cap > 0

let claim t =
  let i = Atomic.fetch_and_add t.next 1 in
  if i >= t.cap then -1 else i

let start t name ~parent ~req =
  if t.cap = 0 then -1
  else
    let i = claim t in
    if i >= 0 then begin
      A.unsafe_set t.nm i (to_int name);
      A.unsafe_set t.parent i parent;
      A.unsafe_set t.req i req;
      A.unsafe_set t.t0 i (Mono.now_ns ())
    end;
    i

let finish t i = if i >= 0 then A.unsafe_set t.t1 i (Mono.now_ns ())

let record t name ~parent ~req ~t0 ~t1 =
  let i = if t.cap = 0 then -1 else claim t in
  if i >= 0 then begin
    A.set t.nm i (to_int name);
    A.set t.parent i parent;
    A.set t.req i req;
    A.set t.t0 i t0;
    A.set t.t1 i t1
  end;
  i

let recorded t = min t.cap (Atomic.get t.next)
let dropped t = max 0 (Atomic.get t.next - t.cap)

type per_name = { count : int; dur_ns : int array; self_ns : int array }

type report = {
  names : (name * per_name) list;
  handoff_ns : int array;
  unfinished : int;
  not_nested : int;
  negative_self : int;
}

let analyze t =
  let n = recorded t in
  let finished i = A.get t.t1 i >= 0 in
  let dur i = A.get t.t1 i - A.get t.t0 i in
  (* children grouped by parent: counting sort into [kids] *)
  let first = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let p = A.get t.parent i in
    if p >= 0 && p < n then first.(p + 1) <- first.(p + 1) + 1
  done;
  for p = 1 to n do
    first.(p) <- first.(p) + first.(p - 1)
  done;
  let fill = Array.sub first 0 n in
  let kids = Array.make (max 1 first.(n)) 0 in
  for i = 0 to n - 1 do
    let p = A.get t.parent i in
    if p >= 0 && p < n then begin
      kids.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    end
  done;
  let unfinished = ref 0 and not_nested = ref 0 and negative_self = ref 0 in
  let nnames = List.length all in
  let durs = Array.make nnames [] and selfs = Array.make nnames [] in
  let handoff = ref [] in
  for i = 0 to n - 1 do
    if not (finished i) then incr unfinished
    else begin
      let s0 = A.get t.t0 i and s1 = A.get t.t1 i in
      let ks =
        Array.to_list (Array.sub kids first.(i) (first.(i + 1) - first.(i)))
        |> List.filter finished
        |> List.map (fun k -> (A.get t.t0 k, A.get t.t1 k))
        |> List.sort compare
      in
      List.iter (fun (k0, k1) -> if k0 < s0 || k1 > s1 then incr not_nested) ks;
      (* union of the children's intervals, unclipped: a child that
         leaks out of its parent can drive self time below zero *)
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (k0, k1) ->
            let lo = max k0 hi in
            if k1 > lo then (acc + (k1 - lo), k1) else (acc, hi))
          (0, min_int) ks
      in
      let self = (s1 - s0) - covered in
      if self < 0 then incr negative_self;
      let k = A.get t.nm i in
      durs.(k) <- (s1 - s0) :: durs.(k);
      selfs.(k) <- self :: selfs.(k);
      let p = A.get t.parent i in
      if of_int k = Body && p >= 0 && p < n && finished p
         && A.get t.nm p = to_int Coupled
      then handoff := (dur p - (s1 - s0)) :: !handoff
    end
  done;
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  {
    names =
      List.map
        (fun nm ->
          let k = to_int nm in
          ( nm,
            {
              count = List.length durs.(k);
              dur_ns = sorted durs.(k);
              self_ns = sorted selfs.(k);
            } ))
        all;
    handoff_ns = sorted !handoff;
    unfinished = !unfinished;
    not_nested = !not_nested;
    negative_self = !negative_self;
  }

let dump t oc =
  for i = 0 to recorded t - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
      (to_string (of_int (A.get t.nm i)))
      (A.get t.parent i) (A.get t.req i) (A.get t.t0 i) (A.get t.t1 i)
  done
