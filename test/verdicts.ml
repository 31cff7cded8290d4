(* Checks made inside a multi-domain run.  Alcotest's output formatter
   (a Format queue) is not domain-safe, and both [Alcotest.check] and
   [Alcotest.fail] write to it, so a check made from a fiber on one
   worker domain can corrupt one made at the same moment on another.
   Code running on worker domains records its verdicts here instead,
   and [run_parallel] asserts them once the run has returned, on the
   test's own thread. *)

let failures : string list Atomic.t = Atomic.make []

let rec fail msg =
  let seen = Atomic.get failures in
  if not (Atomic.compare_and_set failures seen (msg :: seen)) then fail msg

let failf fmt = Printf.ksprintf fail fmt

let check testable msg expected actual =
  if not (Alcotest.equal testable expected actual) then
    let show = Format.asprintf "%a" (Alcotest.pp testable) in
    failf "%s: expected %s, got %s" msg (show expected) (show actual)

(* [Fiber.run_parallel], then fail the test with every verdict the run
   recorded. *)
let run_parallel ?domains main =
  Atomic.set failures [];
  Fiber_rt.Fiber.run_parallel ?domains main;
  match List.rev (Atomic.exchange failures []) with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "; " msgs)
