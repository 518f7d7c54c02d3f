(** Persistent content-addressed compilation cache. See the interface for
    the on-disk layout and failure semantics; the locking protocol is
    described inline. *)

module J = Epre_telemetry.Tjson

let schema = "epre/cache-entry/v2"

let metrics_routine = "<service>"

let count name = Epre_telemetry.Metrics.incr ~routine:metrics_routine ~name

type t = {
  dir : string;
  max_entries : int;
  max_bytes : int option;
  sweep_age_s : float;
  lock : Mutex.t;
  mutable lock_fd : Unix.file_descr option;
      (** cross-process write lock on [<dir>/.lock]; opened on first use
          and kept open for the cache's lifetime — closing *any* fd on a
          file drops all of the process's [lockf] locks on it *)
  mutable entries : int;  (** in-process estimate; refreshed by eviction *)
  mutable bytes : int;  (** same, in entry-file bytes *)
  mutable scanned : bool;  (** [entries]/[bytes] initialized from disk *)
}

let default_dir () =
  match Sys.getenv_opt "EPREC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "eprec"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some d when d <> "" -> Filename.concat (Filename.concat d ".cache") "eprec"
      | _ -> ".eprec-cache"))

let dir t = t.dir

let key ~iloc ~fingerprint =
  Digest.to_hex (Digest.string (fingerprint ^ "\x00" ^ iloc))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_path t k = Filename.concat (Filename.concat t.dir (String.sub k 0 2)) (k ^ ".json")

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ -> ()
    end
  in
  go path

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Fold [f] over every file directly inside a two-hex-char shard of
   [dir]. *)
let iter_shard_files t f =
  if Sys.file_exists t.dir && Sys.is_directory t.dir then
    Array.iter
      (fun sub ->
        let subdir = Filename.concat t.dir sub in
        if String.length sub = 2 && Sys.is_directory subdir then
          Array.iter (fun file -> f (Filename.concat subdir file)) (Sys.readdir subdir))
      (Sys.readdir t.dir)

(* Every entry file under [dir], as (path, mtime, size). *)
let scan_entries t =
  let acc = ref [] in
  iter_shard_files t (fun p ->
      if Filename.check_suffix p ".json" then
        match Unix.stat p with
        | st -> acc := (p, st.Unix.st_mtime, st.Unix.st_size) :: !acc
        | exception Unix.Unix_error _ -> ());
  !acc

let entry_count t = List.length (scan_entries t)

let byte_count t =
  List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 (scan_entries t)

(* A writer that is still alive holds an [lockf] region lock on its temp
   file (taken in [store]). [F_TEST] from another process reports it as
   held, so the sweeper can spare it even when the file is older than the
   age cutoff (e.g. a writer stalled on a slow disk). EACCES/EAGAIN both
   mean "held" depending on the platform. NB: this must only ever be
   called on files that failed the age check — opening and closing an fd
   on a path this process is itself writing would drop our own locks
   (POSIX lockf semantics), but our own in-flight temp files are
   milliseconds old and never reach the lock test. *)
let locked_elsewhere p =
  match Unix.openfile p [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lockf fd Unix.F_TEST 0 with
        | () -> false
        | exception Unix.Unix_error ((Unix.EACCES | Unix.EAGAIN), _, _) -> true
        | exception Unix.Unix_error _ -> false)

(* Crash recovery: a writer that died between open_temp_file and rename
   leaves an orphaned entry*.tmp behind. Sweep only files older than
   [max_age_s] (defaulting to the cache's [sweep_age_s]) — in-flight temp
   files of a live concurrent process are milliseconds old and must
   survive the sweep — and even past the cutoff, spare files whose writer
   still holds its [lockf] lock (alive but slow). *)
let sweep_temp ?max_age_s t =
  let max_age_s = match max_age_s with Some a -> a | None -> t.sweep_age_s in
  let cutoff = Unix.gettimeofday () -. max_age_s in
  let swept = ref 0 in
  iter_shard_files t (fun p ->
      if Filename.check_suffix p ".tmp" then
        match Unix.stat p with
        | st when st.Unix.st_mtime <= cutoff ->
          if locked_elsewhere p then count "cache.tmp_spared"
          else begin
            remove_quietly p;
            count "cache.tmp_swept";
            incr swept
          end
        | _ -> ()
        | exception Unix.Unix_error _ -> ());
  !swept

let create ?(max_entries = 65536) ?max_bytes ?(sweep_age_s = 60.0) ~dir () =
  let t =
    { dir; max_entries = max max_entries 1;
      max_bytes = Option.map (fun b -> max b 1) max_bytes;
      sweep_age_s = Float.max 0.0 sweep_age_s;
      lock = Mutex.create (); lock_fd = None; entries = 0; bytes = 0;
      scanned = false }
  in
  ignore (sweep_temp t);
  t

(* Serialize writers across processes. Must be called with [t.lock] held —
   the lock order is fixed (in-process mutex, then file lock) so two
   domains of one process can never deadlock against another process.
   Readers never take either lock: temp-write + rename keeps every entry
   file atomic for them. *)
let with_file_lock t f =
  let fd =
    match t.lock_fd with
    | Some fd -> fd
    | None ->
      mkdir_p t.dir;
      let fd =
        Unix.openfile (Filename.concat t.dir ".lock")
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
      in
      t.lock_fd <- Some fd;
      fd
  in
  let wait0 = Epre_telemetry.Telemetry.Clock.now_ns () in
  Unix.lockf fd Unix.F_LOCK 0;
  Epre_telemetry.Histogram.observe_since ~name:"cache.lock_wait" wait0;
  Fun.protect
    ~finally:(fun () ->
      try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
    f

let close t =
  locked t (fun () ->
      Option.iter
        (fun fd ->
          t.lock_fd <- None;
          try Unix.close fd with Unix.Unix_error _ -> ())
        t.lock_fd)

(* Read to EOF rather than to the length seen at open: an entry truncated
   mid-read (chaos:cache-corrupt rewrites in place) then comes back short
   and takes the poisoned-entry path instead of raising [End_of_file]. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let digest text = Digest.to_hex (Digest.string text)

(* Decode and fully validate one entry file: schema, key, the stored
   text's digest, the stats, and a text that opens the stats' routine.
   Any failure means the entry is poisoned. The text itself is never
   parsed — a hit serves it verbatim. *)
let decode ~key:k text =
  match J.parse text with
  | Error _ -> None
  | Ok j ->
    let str f = match J.member f j with Some (J.Str s) -> Some s | _ -> None in
    let ( let* ) = Option.bind in
    let check b = if b then Some () else None in
    let* () = check (str "schema" = Some schema) in
    let* () = check (str "key" = Some k) in
    let* iloc = str "iloc" in
    let* () = check (str "iloc_md5" = Some (digest iloc)) in
    let* stats =
      match J.member "stats" j with
      | Some s -> Epre.Pipeline.stats_of_json s
      | None -> None
    in
    let* () =
      check
        (String.starts_with
           ~prefix:("routine " ^ stats.Epre.Pipeline.routine ^ "(")
           iloc)
    in
    Some (iloc, stats)

let find t ~key:k =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"cache" ~hist:"cache.read"
    ~name:"cache.read"
  @@ fun () ->
  let path = entry_path t k in
  match read_file path with
  | exception Sys_error _ ->
    count "cache.misses";
    None
  | text -> (
    match decode ~key:k text with
    | Some hit ->
      count "cache.hits";
      Some hit
    | None ->
      (* Poisoned: discard and recompile rather than crash or replay
         garbage. *)
      remove_quietly path;
      count "cache.poisoned";
      count "cache.misses";
      None)

let encode ~key:k ~fingerprint ~iloc ~stats =
  J.to_string
    (J.Obj
       [ ("schema", J.Str schema);
         ("key", J.Str k);
         ("fingerprint", J.Str fingerprint);
         ("iloc_md5", J.Str (digest iloc));
         ("iloc", J.Str iloc);
         ("stats", Epre.Pipeline.stats_to_json stats) ])

let refresh_from_disk t =
  let entries = scan_entries t in
  t.entries <- List.length entries;
  t.bytes <- List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries;
  t.scanned <- true

(* Drop the oldest entries (by mtime) until both bounds hold, each with
   10% headroom so a hot cache doesn't evict on every store. An eviction
   that the entry-count bound forces counts as [cache.evict_age]; one the
   byte budget forces counts as [cache.evict_size] (both also bump the
   total). Called with [t.lock] and the file lock held; rescans first
   because other processes may have added entries since our estimate. *)
let evict t =
  let entries =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) (scan_entries t)
  in
  t.entries <- List.length entries;
  t.bytes <- List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries;
  let count_target =
    if t.entries > t.max_entries then max 1 (t.max_entries * 9 / 10)
    else t.max_entries
  in
  let bytes_target =
    match t.max_bytes with
    | Some b when t.bytes > b -> max 1 (b * 9 / 10)
    | Some b -> b
    | None -> max_int
  in
  List.iter
    (fun (p, _, sz) ->
      if t.entries > count_target || t.bytes > bytes_target then begin
        let reason =
          if t.entries > count_target then "cache.evict_age"
          else "cache.evict_size"
        in
        remove_quietly p;
        count "cache.evictions";
        count reason;
        t.entries <- t.entries - 1;
        t.bytes <- t.bytes - sz
      end)
    entries

(* A store that fails on I/O (unopenable lock file, full disk, read-only
   directory) only costs a future hit: the temp file is removed, the
   failure counted, and the caller keeps its freshly optimized routine,
   just as [find] turns a read error into a miss. *)
let store t ~key:k ~fingerprint ~iloc ~stats =
  Epre_telemetry.Telemetry.Span.with_ ~kind:"cache" ~hist:"cache.write"
    ~name:"cache.write"
  @@ fun () ->
  let path = entry_path t k in
  let text = encode ~key:k ~fingerprint ~iloc ~stats in
  try
    locked t (fun () ->
        mkdir_p (Filename.dirname path);
        with_file_lock t (fun () ->
            if not t.scanned then refresh_from_disk t;
            let fresh = not (Sys.file_exists path) in
            (* Temp-write + rename: readers (other domains or processes) see
               either the old entry or the whole new one, never a torn
               file. *)
            let tmp, oc =
              Filename.open_temp_file ~temp_dir:(Filename.dirname path)
                ~mode:[ Open_binary ] "entry" ".tmp"
            in
            (* Mark the temp file as live for other processes' sweepers
               ([locked_elsewhere]); the lock dies with the channel's fd. *)
            (try Unix.lockf (Unix.descr_of_out_channel oc) Unix.F_TLOCK 0
             with Unix.Unix_error _ -> ());
            (try
               output_string oc text;
               output_char oc '\n';
               close_out oc;
               Sys.rename tmp path
             with e ->
               close_out_noerr oc;
               remove_quietly tmp;
               raise e);
            count "cache.stores";
            if fresh then begin
              t.entries <- t.entries + 1;
              t.bytes <- t.bytes + String.length text + 1;
              let over_bytes =
                match t.max_bytes with Some b -> t.bytes > b | None -> false
              in
              if t.entries > t.max_entries || over_bytes then evict t
            end))
  with Sys_error _ | Unix.Unix_error _ -> count "cache.store_failed"

(* ------------------------------------------------------------------ *)
(* Chaos hooks *)

let corrupt t ~key:k =
  let path = entry_path t k in
  if Sys.file_exists path then begin
    (* Deliberately non-atomic in-place overwrite — the torn-file poison
       that [find]'s recovery path must absorb. *)
    (try
       let oc = open_out_bin path in
       output_string oc "chaos:cache-corrupt garbage";
       close_out oc
     with Sys_error _ -> ());
    count "cache.corrupted"
  end

let hold_lock t ~ms =
  locked t (fun () ->
      with_file_lock t (fun () -> Unix.sleepf (ms /. 1000.0)))
