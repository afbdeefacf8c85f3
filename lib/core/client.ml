(* The scripted application client: the blocking client of Figure 12
   ({!Client_shell}) over a core that sends the payloads the harness
   queues, oldest first, and logs everything it sends and is delivered
   — the logs the integration tests and the liveness checks assert
   over. *)

open Vsgc_types

module Scripted = struct
  type t = {
    to_send : string list;  (* oldest first *)
    sent : string list;  (* newest first *)
    delivered : (Proc.t * string) list;  (* newest first *)
  }

  let name = "client"
  let empty = { to_send = []; sent = []; delivered = [] }
  let push t payload = { t with to_send = t.to_send @ [ payload ] }
  let next_send t = match t.to_send with s :: _ -> Some s | [] -> None

  let on_sent t s =
    match t.to_send with
    | s' :: rest when String.equal s s' -> { t with to_send = rest; sent = s :: t.sent }
    | _ -> t

  let on_deliver t q s = { t with delivered = (q, s) :: t.delivered }
  let on_view t _ _ = t

  include Client_shell.Silent
end

include Client_shell.Make (Scripted)

let initial me = make me Scripted.empty
let component me = component_of (initial me)
let push_many r payloads = List.iter (push r) payloads
let sent t = List.rev_map Msg.App_msg.make (core t).sent
let delivered t = List.rev_map (fun (q, s) -> (q, Msg.App_msg.make s)) (core t).delivered

let delivered_from t q =
  List.filter_map (fun (s, m) -> if Proc.equal s q then Some m else None) (delivered t)
