package obs

// BucketOf exposes the bucket index an observation lands in to the
// external tests.
var BucketOf = bucketOf
