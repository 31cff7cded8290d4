external now_ns : unit -> int = "ulpbench_now_ns" [@@noalloc]
