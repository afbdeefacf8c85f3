(* The totally ordered log both total-order cores ({!Tord_core},
   {!Tord_symmetric}) append to: the entries newest first plus their
   count, so an append and a length read are O(1) and the stable-prefix
   cursor walks only the suffix it returns. *)

type 'a t = { rev : 'a list; count : int }

let empty = { rev = []; count = 0 }
let add e t = { rev = e :: t.rev; count = t.count + 1 }

(* Append a chunk given oldest first (a view boundary's flush). *)
let add_all es t = { rev = List.rev_append es t.rev; count = t.count + List.length es }

let length t = t.count
let to_list t = List.rev t.rev

(* The entries from global position [k] (0-based), oldest first — the
   cursor read the KV service layers its incremental store on. A cursor
   at or beyond the end (a reborn arm's log restarts shorter than its
   reader's cursor) reads as empty. *)
let from t k =
  if k >= t.count then []
  else
    let rec take n acc = function
      | e :: rest when n > 0 -> take (n - 1) (e :: acc) rest
      | _ -> acc
    in
    take (t.count - k) [] t.rev
