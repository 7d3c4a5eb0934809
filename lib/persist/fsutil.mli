(** Durable filesystem plumbing: the write-temp / fsync / rename /
    fsync-parent-directory cycle used by every site that publishes a
    file atomically ({!Snapshot}, {!Journal.rewrite}, the service
    spool, the replication receiver). *)

val read_file : string -> (string, string) result
(** The whole file, or the system's error message. *)

val fsync_dir : string -> unit
(** [fsync_dir dir] makes a preceding [rename]/[unlink] inside [dir]
    durable across power loss.  Never raises: filesystems that refuse
    directory fsync degrade to rename-only atomicity. *)

val rename_durable : string -> string -> unit
(** [rename_durable tmp path]: [Unix.rename tmp path] followed by
    {!fsync_dir} on [path]'s parent. *)

val write_atomic : string -> string -> unit
(** [write_atomic path data]: write [data] to [path ^ ".tmp"], fsync,
    rename over [path], fsync the parent directory.  A kill at any
    point leaves the old file or [.tmp] litter, never a torn [path]. *)
