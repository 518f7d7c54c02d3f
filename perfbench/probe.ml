(* Host speed probe, run as a child process of the benchmark. For every
   line read on stdin it performs a fixed amount of allocation-heavy work
   that uses no repository code and answers with the nanoseconds it
   took. Its heap and GC settings are its own, so nothing a change to
   the repository does to the benchmark process moves the probe. *)

module IntMap = Map.Make (Int)

let work () =
  let acc = ref 0 in
  for round = 1 to 2 do
    let h = Hashtbl.create 256 in
    let m = ref IntMap.empty in
    for i = 0 to 1_000 do
      let k = ((i * 7919) + round) land 0x3fff in
      Hashtbl.replace h k (i, string_of_int k);
      m := IntMap.add k [ i; k ] !m
    done;
    let l = List.init 1_000 (fun i -> ((i * 104729) + round) land 0xfffff) in
    let l = List.sort compare (List.map (fun x -> x lxor (x lsr 3)) l) in
    acc := !acc + List.length l + Hashtbl.length h + IntMap.cardinal !m
  done;
  !acc

let () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (work ()));
      Printf.printf "%.0f\n%!" ((Unix.gettimeofday () -. t0) *. 1e9)
    done
  with End_of_file -> ()
