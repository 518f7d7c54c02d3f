(** Durable job journal. See the interface for the record format. *)

module J = Epre_telemetry.Tjson

type t = { j_path : string; fd : Unix.file_descr; run : string; mutex : Mutex.t }

type entry = {
  kind : string;
  seq : int;
  id : string;
  key : string;
  fields : (string * J.t) list;
}

let entry ~kind ~seq ~id ~key ?(fields = []) () = { kind; seq; id; key; fields }

let rec mkdir_p p =
  if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

let decode line =
  match J.parse line with
  | Error _ -> None
  | Ok j ->
    let str k = match J.member k j with Some (J.Str s) -> Some s | _ -> None in
    let int k = match J.member k j with Some (J.Int n) -> Some n | _ -> None in
    (match (str "type", int "seq", str "id", str "key", j) with
    | Some kind, Some seq, Some id, Some key, J.Obj members ->
      let fields =
        List.filter
          (fun (k, _) -> not (List.mem k [ "type"; "seq"; "id"; "key" ]))
          members
      in
      Some { kind; seq; id; key; fields }
    | _ -> None)

let load ~path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line ->
            (match decode line with
            | Some e -> go (e :: acc)
            | None -> go acc)
        in
        go [])

let run_of e =
  match List.assoc_opt "run" e.fields with Some (J.Str r) -> Some r | _ -> None

let last_run entries =
  List.fold_left
    (fun acc e -> match run_of e with Some _ as r -> r | None -> acc)
    None entries

let run_counter = ref 0

let fresh_run_id () =
  incr run_counter;
  Printf.sprintf "%d-%.0f-%d" (Unix.getpid ())
    (Unix.gettimeofday () *. 1e3)
    !run_counter

let open_ ?(mode = `Fresh) ~path () =
  mkdir_p (Filename.dirname path);
  let run =
    match mode with
    | `Fresh -> fresh_run_id ()
    | `Resume -> (
      (* Continue the run the stale records belong to, so chained resumes
         (resume of a crashed resume) still honor every prior record of
         the same logical batch. *)
      match last_run (load ~path) with
      | Some r -> r
      | None -> fresh_run_id ())
  in
  (* O_RDWR, not O_WRONLY: [entries] reads back through this same fd —
     opening (and closing) a second fd on the path would silently drop
     this process's advisory lock (POSIX fcntl semantics). *)
  let fd =
    try
      Unix.openfile path
        [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
        0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  let sole_owner =
    try
      Unix.lockf fd Unix.F_TLOCK 0;
      true
    with Unix.Unix_error _ -> false
  in
  (* A fresh (non-resume) serve starts a new logical batch: stale records
     from previous runs must not satisfy a later --resume, so truncate —
     but only when no live process still holds the journal (a concurrent
     serve sharing the cache dir); then run-id stamping alone keeps the
     interleaved records apart. *)
  (match mode with
  | `Fresh when sole_owner -> (
    try Unix.ftruncate fd 0 with Unix.Unix_error _ -> ())
  | `Fresh | `Resume -> ());
  { j_path = path; fd; run; mutex = Mutex.create () }

let path t = t.j_path
let run t = t.run

let encode ~run e =
  J.to_string
    (J.Obj
       ([ ("type", J.Str e.kind); ("seq", J.Int e.seq); ("id", J.Str e.id);
          ("key", J.Str e.key); ("run", J.Str run) ]
       @ e.fields))

let append t = function
  | [] -> ()
  | entries ->
    let buf = Buffer.create 256 in
    List.iter
      (fun e ->
        Buffer.add_string buf (encode ~run:t.run e);
        Buffer.add_char buf '\n')
      entries;
    let s = Buffer.contents buf in
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        (* One write so concurrent appenders interleave at record
           granularity (O_APPEND), then fsync for durability: a record is
           either fully on disk or (torn tail) ignored by [load]. *)
        let n = Unix.write_substring t.fd s 0 (String.length s) in
        if n <> String.length s then
          failwith ("journal: short write to " ^ t.j_path);
        Unix.fsync t.fd)

let entries t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (* Read back through the journal's own fd: a throwaway read fd on
         the same path would release our lockf lock when closed. The
         offset move is harmless — O_APPEND writes ignore it. *)
      let len = (Unix.fstat t.fd).Unix.st_size in
      ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
      let b = Bytes.create len in
      let rec fill off =
        if off < len then
          match Unix.read t.fd b off (len - off) with
          | 0 -> off
          | n -> fill (off + n)
        else off
      in
      let got = fill 0 in
      Bytes.sub_string b 0 got
      |> String.split_on_char '\n'
      |> List.filter_map decode)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let emitted ?run entries =
  List.filter_map
    (fun e ->
      let in_run =
        match run with None -> true | Some r -> run_of e = Some r
      in
      match e.kind with
      | ("done" | "failed") when in_run -> Some (e.seq, e.key)
      | _ -> None)
    entries
