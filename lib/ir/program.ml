(** A program unit: several routines; execution starts at [main]. *)

type t = { routines : Routine.t list }

let create routines = { routines }

let find t name = List.find_opt (fun r -> r.Routine.name = name) t.routines

let find_exn t name =
  match find t name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Program.find_exn: no routine %S" name)

let routines t = t.routines

let copy t = { routines = List.map Routine.copy t.routines }

let op_count t =
  List.fold_left (fun acc r -> acc + Routine.op_count r) 0 t.routines
