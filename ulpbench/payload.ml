(* splitmix-style finaliser on OCaml's 63-bit ints; the multipliers
   are the splitmix64 constants truncated to fit. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let fill buf ~seed ~stream ~seq =
  let st = ref (mix ((seed * 0x9e3779b9) lxor (stream lsl 40) lxor seq)) in
  let len = Bytes.length buf in
  let i = ref 0 in
  while !i < len do
    st := mix (!st + 0x1e3779b97f4a7c15);
    let v = !st in
    let k = ref 0 in
    while !k < 7 && !i < len do
      Bytes.unsafe_set buf !i (Char.unsafe_chr ((v lsr (8 * !k)) land 0xff));
      incr i;
      incr k
    done
  done
