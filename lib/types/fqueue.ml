(* A persistent FIFO queue (two-list representation).

   Used for CO_RFIFO channels: O(1) amortized enqueue/dequeue, plus the
   [drop_last] operation the lose(p,q) action needs.

   Invariant: [front] is empty only when the whole queue is, so [peek]
   is O(1); [push] and [pop] keep it, reversing [back] once when
   [front] runs out. *)

type 'a t = { front : 'a list; back : 'a list; length : int }

let empty = { front = []; back = []; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

let push t x =
  match t.front with
  | [] -> { front = [ x ]; back = []; length = 1 }
  | _ :: _ -> { t with back = x :: t.back; length = t.length + 1 }

let peek t = match t.front with [] -> None | x :: _ -> Some x

let pop t =
  match t.front with
  | [] -> None
  | [ x ] -> Some (x, { front = List.rev t.back; back = []; length = t.length - 1 })
  | x :: front -> Some (x, { t with front; length = t.length - 1 })

let drop_last t =
  (* Remove the most recently enqueued element, as CO_RFIFO's lose(p,q)
     does ("dequeue last message"). *)
  match t.back with
  | _ :: back -> Some { t with back; length = t.length - 1 }
  | [] -> (
      match List.rev t.front with
      | [] -> None
      | _ :: rev_front ->
          Some { front = List.rev rev_front; back = []; length = t.length - 1 })

let to_list t = t.front @ List.rev t.back
let of_list l = { front = l; back = []; length = List.length l }
let fold f acc t = List.fold_left f acc (to_list t)
