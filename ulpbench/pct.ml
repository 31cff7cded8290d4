let min_beyond = 10

let rank ~n ~num ~den = max 1 (((n * num) + den - 1) / den)
let supported ~n ~num ~den = n - rank ~n ~num ~den >= min_beyond

let at a ~num ~den =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.at: no samples";
  a.(min n (rank ~n ~num ~den) - 1)
