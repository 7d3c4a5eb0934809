(** Durable filesystem plumbing shared by every write-temp / fsync /
    rename site in the persistence and service layers.

    The subtlety this module exists for: [rename] alone is atomic but
    not durable — after a power loss the {e directory entry} may still
    be the old one unless the parent directory itself is fsynced.  A
    snapshot or spool file "published" by rename without {!fsync_dir}
    can silently vanish with the crash it was supposed to survive. *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

(** [fsync_dir dir] makes a preceding [rename]/[unlink] in [dir]
    durable.  Errors are swallowed: some filesystems refuse to fsync a
    directory fd, and the write itself already succeeded — degrading to
    rename-without-directory-durability is the best available there. *)
let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 with
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dirfd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(** [rename_durable tmp path]: atomic publish + durable directory
    entry.  [tmp] and [path] must share a parent. *)
let rename_durable tmp path =
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(** Full write-temp / fsync / rename / fsync-dir cycle: after
    [write_atomic path data] returns, [path] holds exactly [data] and
    survives a power loss; a kill at any point leaves either the old
    file or [.tmp] litter, never a torn visible file. *)
let write_atomic path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.of_string data in
      let pos = ref 0 in
      while !pos < Bytes.length b do
        pos := !pos + Unix.write fd b !pos (Bytes.length b - !pos)
      done;
      Unix.fsync fd);
  rename_durable tmp path
