(** Multi-registry Prometheus text exposition.

    The scrape endpoint serves one document covering every exposed
    network. The exposition format requires all series of a metric
    family to be contiguous under a single [# HELP]/[# TYPE] header, so
    registries cannot simply be concatenated — identical instruments in
    two networks' registries would repeat the family header. {!render}
    buckets every instrument by family first (preserving first-seen
    order), then emits each family once with one series per source,
    distinguished by a [net="<name>"] label (omitted for the anonymous
    [""] source, used for server self-metrics). *)

(** [(source name, registry)] pairs → a complete exposition document. *)
val render : ?namespace:string -> (string * Obs.Metrics.t) list -> string
